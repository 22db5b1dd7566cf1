import random

import pytest
from hypothesis import given, settings, strategies as st

import pgroupoid as pg
from pgroupoid.model import orbit_images

from helpers import (MODEL_FIXTURES, SUB_NERVE_GROUPOIDS, assert_closed_as_oracle,
                     brute_products, brute_symmetric_laws, example1_symmetric,
                     groupoid_pool, horn_symmetric, load, sub_nerve, written_variants)


def test_example1_fixture_validates():
    m = load("example1.pgd")
    assert m.mode == "simplicial"
    assert m.counts() == {"objects": 6, "edges": 13, "triangles": 8}
    assert m.validate().ok


def test_spine_collision_reported():
    m = pg.TruncatedModel.simplicial(
        ["0", "1", "2"],
        [("f", "0", "1"), ("g", "1", "2"), ("h", "0", "2"), ("h2", "0", "2")],
        [("f", "g", "h"), ("f", "g", "h2")],
    )
    report = m.validate()
    assert not report.ok
    assert any(v.kind == "spine-collision" for v in report.violations)


def test_validate_spine_report_is_pinned():
    # raw symmetric table: degenerate triples, degenerate spines with
    # another long edge (left identity, right identity, inverse pair) and a
    # spine with two long edges; the constructor closes it and drops the
    # degenerate triples, so the report lists the closed table's faults
    edges = [pg.Edge(f"1@{o}", o, o, inv=f"1@{o}", is_identity=True) for o in "012"]
    for name, src, tgt in (("e", "0", "0"), ("f", "0", "1"), ("g", "1", "2"),
                           ("h", "0", "2"), ("k", "0", "2")):
        edges += [pg.Edge(name, src, tgt, inv=name + "^"),
                  pg.Edge(name + "^", tgt, src, inv=name)]
    triangles = [("1@0", "h", "h"), ("1@0", "h", "k"), ("k", "1@2", "h"),
                 ("k", "1@2", "k"), ("f", "f^", "e"), ("f", "g", "h"),
                 ("f", "g", "k"), ("e", "h", "k")]
    m = pg.TruncatedModel("symmetric", list("012"), edges, triangles)
    assert ("1@0", "h", "h") not in m.triangles
    assert ("k", "1@2", "k") not in m.triangles

    def degenerate(f, g, h, product):
        return ("spine-collision", f"triangle ({f},{g},{h}) collides with the "
                f"degenerate spine ({f},{g}) -> {product}", ((f, g, h),))

    def two_long(f, g, h, k):
        return ("spine-collision", f"spine ({f},{g}) has two long edges {h} and {k}",
                ((f, g, h), (f, g, k)))

    got = [(v.kind, v.detail, v.witness) for v in m.validate().violations]
    assert got == [
        degenerate("1@0", "h", "k", "h"),
        degenerate("1@0", "k", "h", "k"),
        degenerate("1@2", "h^", "k^", "h^"),
        degenerate("1@2", "k^", "h^", "k^"),
        degenerate("f", "f^", "e", "1@0"),
        degenerate("f", "f^", "e^", "1@0"),
        two_long("f", "g", "h", "k"),
        two_long("g^", "f^", "h^", "k^"),
        degenerate("h", "1@2", "k", "h"),
        two_long("h", "k^", "1@0", "e^"),
        degenerate("h^", "1@0", "k^", "h^"),
        degenerate("k", "1@2", "h", "k"),
        two_long("k", "h^", "1@0", "e"),
        degenerate("k^", "1@0", "h^", "k^"),
    ]


def test_constructor_closes_a_raw_table():
    edges = [
        pg.Edge("1@0", "0", "0", inv="1@0", is_identity=True),
        pg.Edge("1@1", "1", "1", inv="1@1", is_identity=True),
        pg.Edge("1@2", "2", "2", inv="1@2", is_identity=True),
        pg.Edge("f", "0", "1", inv="f^"), pg.Edge("f^", "1", "0", inv="f"),
        pg.Edge("g", "1", "2", inv="g^"), pg.Edge("g^", "2", "1", inv="g"),
        pg.Edge("h", "0", "2", inv="h^"), pg.Edge("h^", "2", "0", inv="h"),
    ]
    m = pg.TruncatedModel("symmetric", ["0", "1", "2"], edges,
                          [("f", "g", "h")])
    assert ("f^", "h", "g") in m.triangles
    assert m.validate().ok
    assert m == pg.TruncatedModel.symmetric(
        ["0", "1", "2"], [("f", "0", "1"), ("g", "1", "2"), ("h", "0", "2")],
        [("f", "g", "h")])


def test_involution_fault_reported():
    edges = [
        pg.Edge("1@0", "0", "0", inv="1@0", is_identity=True),
        pg.Edge("1@1", "1", "1", inv="1@1", is_identity=True),
        pg.Edge("f", "0", "1", inv="g"),
        pg.Edge("g", "0", "1", inv="f"),  # wrong endpoints for an inverse
    ]
    m = pg.TruncatedModel("symmetric", ["0", "1"], edges, [])
    report = m.validate()
    assert not report.ok
    assert any(v.kind == "involution-fault" for v in report.violations)


def test_degenerate_models_are_valid():
    empty = pg.TruncatedModel.simplicial([], [])
    assert empty.validate().ok
    point = pg.TruncatedModel.symmetric(["o"], [])
    assert point.validate().ok
    assert point.counts() == {"objects": 1, "edges": 0, "triangles": 0}


def test_duplicate_and_dangling_raise():
    with pytest.raises(pg.ModelError):
        pg.TruncatedModel.simplicial(["0", "0"], [])
    with pytest.raises(pg.ModelError):
        pg.TruncatedModel.simplicial(["0"], [("f", "0", "9")])
    with pytest.raises(pg.ModelError):
        pg.TruncatedModel.simplicial(["0"], [], [("f", "f", "f")])


def test_mult_degenerates_and_table():
    m = load("example1.pgd")
    assert m.mult("1@0", "a") == "a"
    assert m.mult("a", "1@1") == "a"
    assert m.mult("a", "b") == "d"
    assert m.mult("d", "c") == "f"
    assert m.mult("a", "e") == "h"
    m2 = load("example2.pgd")
    assert m2.mult("q", "c'") is None  # composable but no triangle
    ms = example1_symmetric()
    assert ms.mult("a", "a^") == "1@0"
    assert ms.mult("a^", "a") == "1@1"
    assert ms.mult("f", "e^") is None


def test_mult_rejects_noncomposable():
    m = load("example1.pgd")
    with pytest.raises(pg.ModelError):
        m.mult("a", "c")


def test_orbit_closure_size_divides_six_and_idempotent():
    for model in (example1_symmetric(), horn_symmetric(),
                  load("na_square.pgd")):
        tris = model.triangles
        for t in tris:
            orbit = set(orbit_images(t, model.inv))
            assert len(orbit) in (1, 2, 3, 6)
            assert orbit <= tris
        edges = list(model.edges.values())
        for raw in (model.triangle_orbits(), sorted(tris)):
            again = pg.TruncatedModel(model.mode, model.objects, edges, raw)
            assert again.triangles == tris


def test_validation_idempotent_after_normalization():
    ms = example1_symmetric()
    assert ms.validate().ok
    rebuilt = pg.TruncatedModel(ms.mode, ms.objects,
                                list(ms.edges.values()), ms.triangles)
    assert rebuilt.validate().ok
    assert rebuilt == ms


def test_cancellation_holds_on_symmetric_fixtures():
    for model in (example1_symmetric(), horn_symmetric(),
                  load("na_square.pgd"), load("na_pentagon.pgd")):
        report = model.validate()
        assert report.ok
        seen = {}
        for f in model.edges:
            for g, h in model.products_from(f).items():
                assert seen.setdefault((f, h), g) == g


def test_cancellation_fault_detected():
    # mult(f, g) = mult(f, g') = h with g != g': the closed table holds the
    # images (f^, h, g) and (f^, h, g'), so the fault shows as a spine
    # collision on (f^, h) with long edges g and g'
    edges = [
        pg.Edge("1@0", "0", "0", inv="1@0", is_identity=True),
        pg.Edge("1@1", "1", "1", inv="1@1", is_identity=True),
        pg.Edge("f", "0", "1", inv="f^"), pg.Edge("f^", "1", "0", inv="f"),
        pg.Edge("g", "1", "1", inv="g^"), pg.Edge("g^", "1", "1", inv="g"),
        pg.Edge("g'", "1", "1", inv="g'^"), pg.Edge("g'^", "1", "1", inv="g'"),
        pg.Edge("h", "0", "1", inv="h^"), pg.Edge("h^", "1", "0", inv="h"),
    ]
    m = pg.TruncatedModel("symmetric", ["0", "1"], edges,
                          [("f", "g", "h"), ("f", "g'", "h")])
    report = m.validate()
    assert not report.ok
    assert {v.kind for v in report.violations} == {"spine-collision"}
    assert ((("f^", "h", "g"), ("f^", "h", "g'"))
            in [v.witness for v in report.violations])


def _triples(edges):
    """Every composable triple of ``edges`` with a parallel long edge."""
    ends = {e.name: (e.src, e.tgt) for e in edges}
    return [(f, g, h) for f in ends for g in ends for h in ends
            if ends[f][1] == ends[g][0] and ends[h] == (ends[f][0], ends[g][1])]


@st.composite
def _raw_edge_pairs_input(draw):
    """1-3 objects, 1-4 edge pairs (self-inverse loops among them) and 1-6
    raw triangles, degenerate, colliding and identity-containing ones
    included, as constructor arguments."""
    objects = [str(i) for i in range(draw(st.integers(1, 3)))]
    pairs, self_inverse = [], []
    for i in range(draw(st.integers(1, 4))):
        src, tgt = draw(st.sampled_from(objects)), draw(st.sampled_from(objects))
        pairs.append((f"e{i}", src, tgt))
        if src == tgt and draw(st.booleans()):
            self_inverse.append(f"e{i}")
    shell = pg.TruncatedModel.symmetric(objects, pairs, (), self_inverse)
    triples = _triples(shell.edges.values())
    triangles = draw(st.lists(st.sampled_from(triples), min_size=1, max_size=6))
    return "symmetric", objects, list(shell.edges.values()), triangles


_NERVES = tuple(pg.nerve_truncation(g) for g in SUB_NERVE_GROUPOIDS)


@st.composite
def _sub_nerve_input(draw):
    """Some edge pairs of a small groupoid's nerve with up to 6 of its
    triangles, unclosed, which never collide, and up to 2 raw ones, as
    constructor arguments."""
    nerve = draw(st.sampled_from(_NERVES))
    kept = {}
    for name in sorted(nerve.edges):
        if name not in kept:
            e = nerve.edge(name)
            kept[name] = kept[e.inv] = e.is_identity or draw(st.booleans())
    edges = [nerve.edge(name) for name in sorted(kept) if kept[name]]
    triangles = draw(st.lists(st.sampled_from(_triples(edges)), max_size=2))
    lawful = [t for t in sorted(nerve.triangles) if all(kept[e] for e in t)]
    if lawful:
        triangles += draw(st.lists(st.sampled_from(lawful), max_size=6))
    return "symmetric", nerve.objects, edges, triangles


@st.composite
def _drawn_sub_nerve_input(draw):
    """A ``sub_nerve`` draw, written as one image of each orbit beside a
    degenerate triangle on every nonidentity edge."""
    nerve = draw(st.sampled_from(_NERVES))
    model = sub_nerve(nerve, random.Random(draw(st.integers(0, 2**32))),
                      draw(st.floats(0.5, 1.0)), draw(st.floats(0.2, 1.0)))
    return "symmetric", model.objects, model.edges.values(), written_variants(model)[1]


def _assert_one_table(model):
    """``mult``, ``products_from`` and ``products_to`` agree with products
    re-derived from the stored triangles."""
    products = brute_products(model)
    for f, ef in model.edges.items():
        assert model.products_from(f) == {
            g: h for (f2, g), h in products.items() if f2 == f}
        for g, eg in model.edges.items():
            if ef.tgt == eg.src:
                assert model.mult(f, g) == products.get((f, g)), (f, g)
    for h in model.edges:
        assert model.products_to(h) == tuple(sorted(
            (f, g) for f, g, k in model.triangles if k == h == products[(f, g)]))


@settings(max_examples=600, deadline=None)
@given(st.one_of(_raw_edge_pairs_input(), _sub_nerve_input(), _drawn_sub_nerve_input()))
def test_validate_agrees_with_brute_force_laws(written):
    # validate checks the involution and spininess only; orbit closure and
    # two-sided cancellation must follow from the constructor's closure,
    # which closes each written orbit as the image-by-image oracle does;
    # valid or not, the product table answers as the stored triangles say
    model = assert_closed_as_oracle(*written)
    assert model.validate().ok == brute_symmetric_laws(model)
    _assert_one_table(model)


# -- the product table ----------------------------------------------------------


def _raw_fault_tables():
    """A spine collision, degenerate collisions and an involution fault."""
    yield pg.TruncatedModel.simplicial(
        ["0", "1", "2"],
        [("f", "0", "1"), ("g", "1", "2"), ("h", "0", "2"), ("h2", "0", "2")],
        [("f", "g", "h2"), ("f", "g", "h")])
    yield pg.TruncatedModel.symmetric(
        list("012"),
        [("e", "0", "0"), ("f", "0", "1"), ("h", "0", "2"), ("k", "0", "2")],
        [("1@0", "h", "k"), ("f", "f^", "e"), ("k", "1@2", "h")])
    yield pg.TruncatedModel("symmetric", ["0", "1"], [
        pg.Edge("1@0", "0", "0", inv="1@0", is_identity=True),
        pg.Edge("1@1", "1", "1", inv="1@1", is_identity=True),
        pg.Edge("f", "0", "1", inv="g"), pg.Edge("g", "0", "1", inv="f"),
        pg.Edge("k", "1", "1", inv="k")], [("f", "k", "g")])


def test_product_table_matches_triangle_oracle():
    models = [load(name) for name in MODEL_FIXTURES]
    models += [pg.symmetrize(m) for m in models if m.mode == "simplicial"]
    models += [pg.nerve_truncation(cat) for cat in groupoid_pool()]
    rng = random.Random(20)
    for nerve in _NERVES:
        models += [sub_nerve(nerve, rng, rng.uniform(0.5, 0.95), rng.uniform(0.2, 0.8))
                   for _ in range(10)]
    faulty = list(_raw_fault_tables())
    assert all(not m.validate().ok for m in faulty)
    for model in models + faulty:
        _assert_one_table(model)


def test_nonidentity_edges_are_built_once():
    models = [load(name) for name in MODEL_FIXTURES]
    models += [pg.symmetrize(m) for m in models if m.mode == "simplicial"]
    models += [pg.nerve_truncation(cat) for cat in groupoid_pool()]
    for model in models:
        edges = model.nonidentity_edges()
        assert edges == tuple(sorted(n for n in model.edges if not model.is_identity(n)))
        assert model.nonidentity_edges() is edges


# -- nerves ----------------------------------------------------------------------


def test_nerve_cyclic_group_three():
    nerve = pg.nerve_truncation(pg.cyclic_group(3))
    assert nerve.counts() == {"objects": 1, "edges": 2, "triangles": 2}
    assert sorted(nerve.triangles) == [("x", "x", "x2"), ("x2", "x2", "x")]
    assert nerve.validate().ok
    # full multiplication: nonidentity products all answered
    assert nerve.mult("x", "x") == "x2"
    assert nerve.mult("x", "x2") == "1@o"
    assert nerve.mult("x2", "x") == "1@o"


def test_nerve_discrete_category():
    cat = pg.FiniteCategory(["a", "b"], [], {})
    nerve = pg.nerve_truncation(cat)
    assert nerve.counts() == {"objects": 2, "edges": 0, "triangles": 0}


def test_nerve_interval_groupoid():
    nerve = pg.nerve_truncation(pg.interval_groupoid())
    assert nerve.counts() == {"objects": 2, "edges": 2, "triangles": 0}
    assert nerve.mult("f", "f^") == "1@a"


def test_nerve_symmetric_requires_groupoid():
    chain = pg.path_category(["0", "1"], [("u", "0", "1")])
    with pytest.raises(pg.ModelError):
        pg.nerve_truncation(chain)
    simp = pg.nerve_truncation(chain, mode="simplicial")
    assert simp.validate().ok


# -- symmetrization -----------------------------------------------------------------


def test_symmetrize_horn_counts():
    horn = load("horn.pgd")
    sym = pg.symmetrize(horn)
    assert len(sym.edge_pairs()) == 6
    assert len(sym.triangles) == 18
    assert sym.validate().ok


def test_symmetrize_no_triangles():
    m = pg.TruncatedModel.simplicial(["0", "1"], [("f", "0", "1")])
    sym = pg.symmetrize(m)
    assert sym.triangles == frozenset()
    assert len(sym.edge_pairs()) == 1


def test_symmetrize_example1_valid():
    sym = example1_symmetric()
    assert sym.validate().ok
    assert len(sym.edge_pairs()) == 13
    assert len(sym.triangles) == 48


def test_symmetrize_detects_collision():
    # g o f = id forces g = f inverse after symmetrization; h = id with a
    # fresh inverse around breaks spininess
    m = pg.TruncatedModel.simplicial(
        ["0", "1"],
        [("f", "0", "1"), ("g", "1", "0")],
        [("f", "g", "1@0")],
    )
    assert m.validate().ok  # fine as an edgy simplicial set
    with pytest.raises(pg.SpininessError) as exc:
        pg.symmetrize(m)
    assert exc.value.report.violations


# -- homs ----------------------------------------------------------------------------


def test_identity_hom_enumerated():
    m = load("na_square.pgd")
    homs = pg.enumerate_homs(m, m)
    ident = pg.identity_hom(m)
    assert ident in homs
    assert all(pg.verify_hom(m, m, h) for h in homs)


def test_spine_model_hom_count():
    spine = pg.TruncatedModel.symmetric(
        ["0", "1", "2", "3"],
        [("s1", "0", "1"), ("s2", "1", "2"), ("s3", "2", "3")])
    nerve = pg.nerve_truncation(pg.cyclic_group(3))
    homs = pg.enumerate_homs(spine, nerve)
    assert len(homs) == 27
    assert len(set(homs)) == 27


def test_na_homs_identify_long_edges_in_nerve():
    na = load("na_square.pgd")
    nerve = pg.nerve_truncation(pg.cyclic_group(3))
    homs = pg.enumerate_homs(na, nerve)
    assert homs
    for h in homs:
        assert h.edge("lT") == h.edge("lT'")


def test_hom_constant_map_exists():
    m = load("na_pentagon.pgd")
    nerve = pg.nerve_truncation(pg.cyclic_group(2))
    homs = pg.enumerate_homs(m, nerve)
    constant = pg.Hom.of({o: "o" for o in m.objects},
                         {e: "1@o" for e in m.edges})
    assert constant in homs


def test_hom_mode_mismatch():
    with pytest.raises(pg.HomError):
        pg.enumerate_homs(load("example1.pgd"), load("na_square.pgd"))


def test_self_inverse_edges():
    m = pg.TruncatedModel.symmetric(["o"], [("m", "o", "o")],
                                    self_inverse=["m"])
    assert m.inv("m") == "m"
    assert m.validate().ok
    nerve2 = pg.nerve_truncation(pg.cyclic_group(2))
    assert nerve2.inv("x") == "x"
    homs = pg.enumerate_homs(m, nerve2)
    assert len(homs) == 2  # m -> identity or the involution
