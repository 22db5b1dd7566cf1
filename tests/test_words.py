import random
from itertools import combinations
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

import pgroupoid as pg
from pgroupoid.words import ValueTable, _parallel_classes, _scan, word_sort_key

from helpers import (
    FullLayers,
    FullScan,
    MODEL_FIXTURES,
    SUB_NERVE_GROUPOIDS,
    all_composable_words,
    all_image_orbits,
    assert_closed_as_oracle,
    brute_abelian_classes,
    brute_contracts_to,
    brute_values,
    example1_symmetric,
    groupoid_pool,
    horn_symmetric,
    load,
    model_union,
    oriented_half,
    pentagon_figure_pair,
    stabilized_merge,
    sub_nerve,
    symmetric_group_3,
    written_variants,
)


# -- contract / values ---------------------------------------------------------


def test_contract_example1():
    m = load("example1.pgd")
    assert pg.contract(m, ("a", "b", "c"), 1) == ("d", "c")
    assert pg.contract(m, ("a", "b", "c"), 2) == ("a", "e")


def test_contract_inverse_pair():
    ms = example1_symmetric()
    assert pg.contract(ms, ("f", "f^"), 1) == ("1@0",)


def test_contract_example2_chain():
    m = load("example2.pgd")
    assert pg.contract(m, ("a", "m", "c'"), 1) == ("q", "c'")
    assert pg.contract(m, ("q", "c'"), 1) is None


def test_contract_index_errors():
    m = load("example1.pgd")
    with pytest.raises(pg.WordError):
        pg.contract(m, ("a", "b"), 0)
    with pytest.raises(pg.WordError):
        pg.contract(m, ("a", "b"), 2)
    with pytest.raises(pg.WordError):
        pg.contract(m, ("a", "c"), 1)  # not composable


def test_values_examples():
    m = load("example1.pgd")
    assert pg.values(m, ("a", "b", "c")) == {"f", "h"}
    assert pg.values(m, ("p", "q", "r")) == {"g", "h"}
    assert pg.values(m, ("f",)) == {"f"}
    ms = example1_symmetric()
    assert pg.values(ms, ("a", "b", "c")) == {"f", "h"}
    m2 = load("example2.pgd")
    assert pg.values(m2, ("a", "m", "c'")) == set()
    assert pg.values(m2, ("a", "b", "c")) == {"f"}
    assert pg.values(m2, ("a'", "b'", "c'")) == {"g"}


def test_values_match_brute_force_short():
    for model in (load("example2.pgd"), horn_symmetric()):
        memo = {}
        for word in all_composable_words(model, 4):
            assert pg.values(model, word) == brute_values(model, word, memo)


def test_value_trees_are_real_derivations():
    m = load("example1.pgd")
    trees = pg.value_trees(m, ("a", "b", "c"))
    assert set(trees) == {"f", "h"}
    assert trees["f"] == ((1, 2), 3)
    assert trees["h"] == (1, (2, 3))


CONTRACTION_MODELS = (
    ("na_pentagon", lambda: load("na_pentagon.pgd")),
    ("example1_symmetric", example1_symmetric),
    ("horn_symmetric", horn_symmetric),
)


@pytest.mark.parametrize("name, make", CONTRACTION_MODELS)
def test_contracts_to_matches_contraction_search(name, make):
    model = make()
    rng = random.Random(name)
    words = list(all_composable_words(model, 5))
    for word in words:
        one = pg.contractions(model, word)
        two = [w for step in one for w in pg.contractions(model, step)]
        targets = set(one) | set(two) | set(rng.sample(words, 4))
        for target in targets:
            assert pg.contracts_to(model, word, target) \
                == brute_contracts_to(model, word, target), (word, target)
        longer = word + (pg.identity_name(model.edge(word[-1]).tgt),)
        for target in (word, longer, word[::-1], ("no such edge",) * len(word)):
            assert not pg.contracts_to(model, word, target)
            assert not brute_contracts_to(model, word, target)
        # a word no longer than its target is answered before it is checked
        assert not pg.contracts_to(model, word[::-1], word)


def test_is_mean():
    m = load("example1.pgd")
    assert pg.is_mean(m, ("a", "b", "c"))
    assert not pg.is_mean(m, ("a", "b"))


# -- mean scan -------------------------------------------------------------------


def test_mean_scan_na_square():
    na = load("na_square.pgd")
    scan = pg.mean_scan(na, 3)
    assert scan.witness == ("s1", "s2", "s3")
    assert scan.witness_values == ("lT", "lT'")


def test_mean_scan_example2_kind():
    m = load("example2.pgd")
    scan = pg.mean_scan(m, 12)
    assert scan.is_kind


def test_mean_scan_nerve_kind():
    nerve = pg.nerve_truncation(pg.cyclic_group(3))
    assert pg.mean_scan(nerve, 7).is_kind


def test_mean_scan_monotone_witness():
    na = load("na_square.pgd")
    w3 = pg.mean_scan(na, 3).witness
    for bound in (4, 5, 6):
        assert pg.mean_scan(na, bound).witness == w3


def test_mean_scan_collect_all_sad_edges():
    na = load("na_square.pgd")
    scan = pg.mean_scan(na, 3, collect_all=True)
    assert scan.mean_word_count == 4
    assert set(scan.sad_edges) == {"lT", "lT'", "lT^", "lT'^"}


def test_mean_scan_rejects_tiny_bound():
    with pytest.raises(pg.WordError):
        pg.mean_scan(load("na_square.pgd"), 1)


def _brute_layers(model, max_len):
    """Per length: word -> brute-force values, for every valued word."""
    memo = {}
    layers = {L: {} for L in range(1, max_len + 1)}
    for word in all_composable_words(model, max_len):
        vals = brute_values(model, word, memo)
        if vals:
            layers[len(word)][word] = vals
    return layers


def _middle_split_chain():
    """The path a b c d, with a·b = x, c·d = y and x·y = h: the word abcd
    has the value h, but only through its middle split (ab)(cd)."""
    return pg.TruncatedModel.simplicial(
        "01234",
        [("a", "0", "1"), ("b", "1", "2"), ("c", "2", "3"), ("d", "3", "4"),
         ("x", "0", "2"), ("y", "2", "4"), ("h", "0", "4")],
        [("a", "b", "x"), ("c", "d", "y"), ("x", "y", "h")])


EQUIVALENCE_MODELS = (
    ("na_square", lambda: load("na_square.pgd")),
    ("na_pentagon", lambda: load("na_pentagon.pgd")),
    ("example1", lambda: load("example1.pgd")),
    ("example2", lambda: load("example2.pgd")),
    ("horn_symmetric", horn_symmetric),
    ("middle_split_chain", _middle_split_chain),
)


@pytest.mark.parametrize("name, make", EQUIVALENCE_MODELS)
def test_value_table_layers_match_brute_force(name, make):
    model = make()
    brute = _brute_layers(model, 6)
    full = FullLayers(model, 6)
    # one class of every edge makes the table build the set of every value
    # that a length reaches, whenever it reaches two
    every = tuple(sorted(model.edges))
    seeded = _seeded_edges(model, (every,))
    table = ValueTable(model, 6, (every,))
    for length in range(1, 7):
        layer = full.layer(length)
        assert len(layer) == len(brute[length])
        assert {full.decode(w, length) for w in layer} == set(brute[length])
        by_value = {}
        for word, vals in brute[length].items():
            for v in vals:
                by_value.setdefault(v, set()).add(word)
        got = {v: {full.decode(w, length) for w in ws}
               for v, ws in full.by_value[length].items()}
        assert got == by_value
        if length > 1:
            words = table.layer(length)
            assert table.keys[length] == by_value.keys()
            built = {v: {table.decode(w, length) for w in ws}
                     for v, ws in table.sets[length].items()}
            expected = {v: ws if v in seeded else set() for v, ws in by_value.items()}
            assert built == (expected if len(expected) > 1 else {})
            assert {table.decode(w, length) for w in words} == set().union(*built.values())


def test_value_table_example1_sizes_and_exhaustion():
    model = load("example1.pgd")
    assert [len(FullLayers(model, 7).layer(L)) for L in range(1, 8)] == [13, 8, 2, 0, 0, 0, 0]
    table = ValueTable(model, 7, _parallel_classes(model))
    exhausted = []
    for length in range(1, 8):
        table.layer(length)
        exhausted.append(table.exhausted_at(length))
    assert [bool(keys) for keys in table.keys[1:]] == [True] * 3 + [False] * 4
    # layers 4..7 form the first empty dyadic window
    assert exhausted == [False] * 6 + [True]


def test_exhausted_at_answers_for_the_length_asked():
    model = load("example1.pgd")
    table = ValueTable(model, 7, _parallel_classes(model))
    table.layer(5)
    # layers 4 and 5 are empty, but no dyadic window is closed yet
    assert not any(table.exhausted_at(length) for length in range(1, 6))
    table.layer(7)
    # layers 1..7 hold 13, 8, 2, 0, 0, 0, 0 words
    assert [table.exhausted_at(length) for length in range(1, 8)] == [False] * 2 + [True] * 5


@pytest.mark.parametrize("name, make", EQUIVALENCE_MODELS)
def test_mean_scan_matches_brute_force(name, make):
    model = make()
    brute = _brute_layers(model, 6)
    for bound in range(2, 7):
        mean = {L: sorted((w for w, vals in brute[L].items() if len(vals) >= 2),
                          key=word_sort_key) for L in range(2, bound + 1)}
        first = [words for words in mean.values() if words]
        scan = pg.mean_scan(model, bound)
        full = pg.mean_scan(model, bound, collect_all=True)
        if not first:
            assert scan.is_kind and full.is_kind
            assert scan.mean_word_count == full.mean_word_count == 0
            assert scan.sad_edges == full.sad_edges == ()
            continue
        witness = first[0][0]
        witness_values = tuple(sorted(brute[len(witness)][witness]))
        for result in (scan, full):
            assert result.witness == witness
            assert result.witness_values == witness_values
        assert scan.mean_word_count == 1
        assert scan.sad_edges == witness_values
        assert full.mean_word_count == sum(map(len, mean.values()))
        assert full.sad_edges == tuple(sorted(set().union(
            *(brute[L][w] for L, words in mean.items() for w in words))))


def test_mean_scan_rechecks_its_witness(monkeypatch):
    monkeypatch.setattr(pg.words, "values", lambda model, word: frozenset({"lT"}))
    with pytest.raises(AssertionError):
        pg.mean_scan(load("na_square.pgd"), 3)


def test_mountain_rechecks_its_table_witness(monkeypatch):
    ms = example1_symmetric()
    monkeypatch.setattr(pg.words, "values", lambda model, word: frozenset({"f"}))
    with pytest.raises(AssertionError):
        pg.mountain(ms, "f", "g", 6)


# -- the layer at the bound ----------------------------------------------------------


SCAN_BOUNDS = range(2, 8)


def _fixture_models():
    for name in MODEL_FIXTURES:
        model = load(name)
        yield name, model
        if model.mode == pg.model.SIMPLICIAL:
            yield f"{name} symmetrized", pg.symmetrize(model)
    yield "Z3 nerve", pg.nerve_truncation(pg.cyclic_group(3))
    yield "Z5 nerve", pg.nerve_truncation(pg.cyclic_group(5))
    yield "pair(3) nerve", pg.nerve_truncation(pg.pair_groupoid(["a", "b", "c"]))


def _na_gluings(max_n, min_n=3, step=1):
    """Every ``step``-th NA gluing at each n from ``min_n`` to ``max_n``."""
    for n in range(min_n, max_n + 1):
        tris = pg.enumerate_triangulations(n)
        pairs = [(i, j) for i, t in enumerate(tris) for j, t2 in enumerate(tris)
                 if pg.pair_classify(t, t2) != pg.INCOMPATIBLE]
        for i, j in pairs[::step]:
            yield f"NA({n}; {i}, {j})", pg.build_glued(tris[i], tris[j]).model


def _gluings(max_n):
    for n in range(3, max_n + 1):
        tris = pg.enumerate_triangulations(n)
        for t in tris:
            for t2 in tris:
                kind = pg.pair_classify(t, t2)
                if kind != pg.INCOMPATIBLE:
                    yield pg.build_glued(t, t2).model
                if kind == pg.WELL_BEHAVED:
                    yield pg.build_glued(t, t2, variant="a").model


NA_GLUINGS = list(_gluings(4))


def _parallel_pairs(model):
    ends = {e: (model.edge(e).src, model.edge(e).tgt) for e in model.edges}
    return [(f, g) for f, g in combinations(sorted(model.edges), 2) if ends[f] == ends[g]]


def _check_scan_against_full_layers(model, bounds=SCAN_BOUNDS):
    """mean_scan (both modes) and mountain on every parallel pair agree with
    the full-layer oracle at every bound; returns how many answers were
    mean witnesses or mountains."""
    full = FullScan(model, max(bounds))
    pairs = _parallel_pairs(model)
    found = 0
    for bound in bounds:
        for collect_all in (False, True):
            scan = pg.mean_scan(model, bound, collect_all=collect_all)
            got = (scan.witness, scan.witness_values, scan.sad_edges, scan.mean_word_count)
            assert got == full.mean_scan(bound, collect_all), (bound, collect_all)
            found += not scan.is_kind
        for f, g in pairs:
            word = pg.mountain(model, f, g, bound)
            assert word == full.mountain(f, g, bound), (f, g, bound)
            found += word is not None
    return found


@pytest.mark.parametrize("name, model", list(_fixture_models()),
                         ids=[name for name, _ in _fixture_models()])
def test_bounded_scan_matches_full_layers_on_fixtures(name, model):
    _check_scan_against_full_layers(model)


def test_bounded_scan_matches_full_layers_on_na_gluings():
    # the 108 gluings at n = 5 and every 20th of the 930 at n = 6 stop at
    # bound 6: a full layer 7 of one of them holds up to 240,000 words, and
    # building them all would take most of a minute; the other inputs still
    # reach bound 7
    sampled = list(_na_gluings(6, min_n=6, step=20))
    found = {name: _check_scan_against_full_layers(
        model, SCAN_BOUNDS if name.startswith(("NA(3;", "NA(4;")) else range(2, 7))
        for name, model in list(_na_gluings(5)) + sampled}
    assert len(found) == 124 + 47
    # every NA gluing is mean at its spine length, which is one of the bounds
    assert all(found.values())
    # a scan builds a set below its last length only as a factor of a
    # longer one, as collect_all and the bounds above the least mean word
    # ask for, so the samples are mean below 6 too
    assert {len(pg.mean_scan(model, 6).witness) for _, model in sampled} == {3, 4, 5, 6}


@settings(max_examples=25, deadline=None)
@given(st.sampled_from(range(len(SUB_NERVE_GROUPOIDS))), st.integers(0, 2**32),
       st.floats(0.5, 1.0), st.floats(0.5, 1.0), st.sampled_from(NA_GLUINGS))
def test_bounded_scan_matches_full_layers_on_sub_nerves(which, seed, edge_p, tri_p, gluing):
    nerve = pg.nerve_truncation(SUB_NERVE_GROUPOIDS[which])
    model = sub_nerve(nerve, random.Random(seed), edge_p, tri_p)
    _check_scan_against_full_layers(model)
    # beside a gluing, whose mean words lie below most bounds: the scans
    # read lengths past them, built from the sets that those lengths need
    _check_scan_against_full_layers(model_union(model, gluing))


def _scan_layers(monkeypatch, scan):
    """(length, words returned, sets built at that length, exhausted_at) of
    every layer one scan reads, and the scan's table.  A scan reads its
    lengths in ascending order, so the sets of a length built when it is
    read are the ones built for that read."""
    seen, tables = [], []
    build = ValueTable.layer

    def recording_layer(table, length):
        out = build(table, length)
        seen.append((length, out, dict(table.sets[length]), table.exhausted_at(length)))
        tables.append(table)
        return out

    with monkeypatch.context() as patch:
        patch.setattr(ValueTable, "layer", recording_layer)
        scan()
    return seen, tables[-1]


def _class_values_reached(index, classes):
    """The values of ``index`` in the classes that hold two or more of them."""
    reached = [set(index).intersection(c) for c in classes]
    return set().union(*(hit for hit in reached if len(hit) > 1))


def _seeded_edges(model, classes):
    """The edges whose connected component, found by a walk over both edge
    directions, holds one of the ``classes``."""
    neighbours = {o: set() for o in model.objects}
    for e in model.edges.values():
        neighbours[e.src].add(e.tgt)
        neighbours[e.tgt].add(e.src)
    component = {}
    for start in model.objects:
        stack = [start]
        while stack:
            o = stack.pop()
            if o not in component:
                component[o] = start
                stack.extend(neighbours[o])
    live = {component[model.edge(c[0]).src] for c in classes}
    return {name for name, e in model.edges.items() if component[e.src] in live}


def _ascending_half():
    """The simplicial model on the edges of a pair(4) sub-nerve that go up
    in object order, with the stored triangles among them; its words
    climb, so its layers run out."""
    model = sub_nerve(pg.nerve_truncation(pg.pair_groupoid(["a", "b", "c", "d"])),
                      random.Random(3), 0.9, 0.9)
    edges = [(name, model.edge(name).src, model.edge(name).tgt)
             for name in model.nonidentity_edges()]
    edges = [(name, src, tgt) for name, src, tgt in edges if src < tgt]
    names = {name for name, _, _ in edges}
    triangles = [t for t in model.triangles if set(t) <= names]
    return pg.TruncatedModel.simplicial(model.objects, edges, triangles)


def _exhaustion_models():
    yield from _fixture_models()
    yield "ascending half of a pair(4) sub-nerve", _ascending_half()
    # a component with parallel edges beside one without any
    yield "a_square + na_square", model_union(load("a_square.pgd"), load("na_square.pgd"))


def _full_exhaustion(model, max_len):
    full = FullLayers(model, max_len)
    return [(L, len(full.layer(L)), full.exhausted_at(L)) for L in range(2, max_len + 1)]


def _check_table_reads(table, seen, full, seeded):
    """What a scan's table built against the full build ``full``: keys
    equal at every length the scan reached; every set built is the full
    build's in a seeded component and empty elsewhere; the sets read at a
    length are those of each filled class that reaches two values there,
    and the words returned are their union."""
    reached = seen[-1][0]
    assert len(table.keys) == reached + 1
    for length in range(1, reached + 1):
        assert table.keys[length] == full.by_value[length].keys()
        for v, words in table.sets[length].items():
            assert words == (full.by_value[length][v] if v in seeded else set())
    for length, words, index, _ in seen:
        assert index.keys() == _class_values_reached(full.by_value[length], table.classes)
        assert words == set().union(*index.values())


@pytest.mark.parametrize("name, model", list(_exhaustion_models()),
                         ids=[name for name, _ in _exhaustion_models()])
def test_bounded_scan_exhausts_where_the_full_build_does(monkeypatch, name, model):
    full = _full_exhaustion(model, max(SCAN_BOUNDS))
    full_table = FullLayers(model, max(SCAN_BOUNDS))
    pairs = _parallel_pairs(model)[:3]
    every = _parallel_classes(model)
    for bound in SCAN_BOUNDS:
        # the scan over every parallel class, which mean_scan skips or narrows
        scans = [(every, lambda: _scan(model, bound, every, collect_all=True))]
        scans += [(((f, g),), lambda f=f, g=g: pg.mountain(model, f, g, bound))
                  for f, g in pairs]
        for classes, scan in scans:
            seen, table = _scan_layers(monkeypatch, scan)
            assert [length for length, *_ in seen] == list(range(2, seen[-1][0] + 1))
            if seen[-1][0] < bound:
                # a scan stops early only on exhaustion (mountain also on a find)
                assert seen[-1][3] or classes is not every
            for length, _, _, exhausted in seen:
                assert exhausted == full[length - 2][2]
            # the filled classes are the listed ones, less the greater of
            # each pair of inverse classes on a symmetric model
            inverse = ({c: tuple(sorted(map(model.inv, c))) for c in classes}
                       if model.mode == pg.model.SYMMETRIC else {})
            dropped = {c for c in classes if inverse.get(c, c) < c and inverse[c] in classes}
            assert table.classes == tuple(c for c in classes if c not in dropped)
            _check_table_reads(table, seen, full_table, _seeded_edges(model, table.classes))


def test_exhaustion_closes_on_the_last_layer():
    # example1 and the half have words up to length 3, so for both, layers
    # 4..7 are the first empty dyadic window
    for model in (load("example1.pgd"), _ascending_half()):
        full = _full_exhaustion(model, 7)
        assert [size > 0 for _, size, _ in full] == [True, True] + [False] * 4
        assert [e for _, _, e in full] == [False] * 5 + [True]
        table = ValueTable(model, 7, ())
        table.layer(7)
        assert table.exhausted_at(7) and not table.keys[7]
    # a layer at the bound that keeps nothing is not an empty layer
    table = ValueTable(load("a_square.pgd"), 7, ())
    assert not table.layer(7) and not table.exhausted_at(7)
    with pytest.raises(pg.WordError):
        table.layer(8)


@pytest.mark.parametrize("model", [load("a_square.pgd"), horn_symmetric(),
                                   pg.nerve_truncation(pg.pair_groupoid(["a", "b", "c"]))],
                         ids=["a_square", "horn symmetrized", "pair(3) nerve"])
def test_models_without_parallel_edges_build_no_word(monkeypatch, model):
    assert not _parallel_pairs(model)
    full = FullLayers(model, 8)
    for bound in (2, 5, 8):
        seen, table = _scan_layers(monkeypatch, lambda: _scan(model, bound, _parallel_classes(model),
                                                              collect_all=True))
        assert [length for length, *_ in seen] == list(range(2, bound + 1))
        # the scan has no class, so it reads no word and builds no set, but
        # its keys are the full build's at every length
        assert not any(words for _, words, _, _ in seen)
        assert not any(table.sets[2:])
        for length in range(1, bound + 1):
            assert table.keys[length] == full.by_value[length].keys()


def _layer_at_the_bound(model, bound, classes):
    table = ValueTable(model, bound, classes)
    table.layer(bound)
    return table.sets[bound]


def test_layer_at_the_bound_keeps_the_classes_that_reach_two_values():
    na = load("na_square.pgd")
    full = FullLayers(na, 3)
    for classes, kept in ((_parallel_classes(na), {"lT", "lT'", "lT^", "lT'^"}),
                          ((("lT", "lT'"),), {"lT", "lT'"}),
                          ((), set())):
        assert _layer_at_the_bound(na, 3, classes) == {v: full.by_value[3][v] for v in kept}
    # f, g and h are the products of three spines from 0 to 2 and k is no
    # product, so at length 2 the class (h, k) reaches one value: only the
    # sets of (f, g) are kept, although h is parallel to f and g
    spines = pg.TruncatedModel.simplicial(
        ["0", "1", "2", "3", "4"],
        [("a", "0", "1"), ("b", "1", "2"), ("c", "0", "3"), ("d", "3", "2"),
         ("p", "0", "4"), ("q", "4", "2")] + [(e, "0", "2") for e in "fghk"],
        [("a", "b", "f"), ("c", "d", "g"), ("p", "q", "h")])
    full = FullLayers(spines, 2)
    for classes, kept in (((("f", "g"), ("h", "k")), "fg"),
                          ((("h", "k"),), ""),
                          (_parallel_classes(spines), "fgh")):
        assert _layer_at_the_bound(spines, 2, classes) == {v: full.by_value[2][v] for v in kept}


# -- inverse classes ---------------------------------------------------------------


def _reversed_square(extra=""):
    """na_square with lT and lT' declared from 3 to 0, so that its
    triangles take lT^ and lT'^ as long edges, and its mean words of
    least length have the values of the greater class (lT'^, lT^)."""
    return pg.parse_pgd("""pgd 1
mode symmetric
object 0
object 1
object 2
object 3
edge dT'_13 1 3
edge dT_02 0 2
edge lT 3 0
edge lT' 3 0
edge s1 0 1
edge s2 1 2
edge s3 2 3
tri dT_02 s3 lT^
tri s1 dT'_13 lT'^
tri s1 s2 dT_02
tri s2 s3 dT'_13
""" + extra, check=not extra)


def test_scan_fills_one_class_of_an_inverse_pair_and_inverts_its_words(monkeypatch):
    model = _reversed_square()
    assert pg.abelian_suspects(model) == (("lT", "lT'"), ("lT'^", "lT^"))
    scan = pg.mean_scan(model, 3)
    assert (scan.witness, scan.witness_values) == (("s1", "s2", "s3"), ("lT'^", "lT^"))
    full = FullScan(model, 5)
    for bound, count in ((3, 4), (4, 24), (5, 132)):
        scan = pg.mean_scan(model, bound, collect_all=True)
        assert scan.sad_edges == ("lT", "lT'", "lT'^", "lT^")
        assert scan.mean_word_count == count
        got = (scan.witness, scan.witness_values, scan.sad_edges, scan.mean_word_count)
        assert got == full.mean_scan(bound, collect_all=True)
    # the table fills (lT, lT') alone, and the witness is the inverse of a
    # word it read
    seen, table = _scan_layers(monkeypatch, lambda: pg.mean_scan(model, 5, collect_all=True))
    assert table.classes == (("lT", "lT'"),)
    assert [sorted(index) for _, _, index, _ in seen] == [["lT", "lT'"]] * 4
    read = {table.decode(w, 3) for w in seen[1][1]}
    assert ("s3^", "s2^", "s1^") in read and ("s1", "s2", "s3") not in read


def test_spine_faults_turn_the_mirror_off(monkeypatch):
    # a second long edge on the spine (dT_02, s3): its product is lT'^, the
    # least, while the mirrored spine (s3^, dT_02^) takes lT, whose inverse
    # is not lT'^, so inverting words would not invert their values
    model = _reversed_square("tri dT_02 s3 lT'^\n")
    assert not model.validate().ok
    assert model.mult("dT_02", "s3") == "lT'^" and model.mult("s3^", "dT_02^") == "lT"
    classes = pg.abelian_suspects(model)
    assert classes == (("lT", "lT'"), ("lT'^", "lT^"))
    _, table = _scan_layers(monkeypatch, lambda: pg.mean_scan(model, 4, collect_all=True))
    assert table.classes == classes
    full = FullScan(model, 4)
    for bound in (2, 3, 4):
        for collect_all in (False, True):
            scan = pg.mean_scan(model, bound, collect_all=collect_all)
            got = (scan.witness, scan.witness_values, scan.sad_edges, scan.mean_word_count)
            assert got == full.mean_scan(bound, collect_all)


# -- the abelian certificate -----------------------------------------------------------


def _check_guided_scan(model, bound=6):
    """mean_scan, which scans only the suspect classes, gives the scan over
    every parallel class in both modes; a model with no suspect class is
    kind, and the classes are those of the dense abelian oracle."""
    suspects = pg.abelian_suspects(model)
    assert suspects == brute_abelian_classes(model)
    for collect_all in (False, True):
        plain = _scan(model, bound, _parallel_classes(model), collect_all)
        assert pg.mean_scan(model, bound, collect_all=collect_all) == plain
        assert plain.is_kind or suspects
        assert set(plain.sad_edges) <= set().union(*suspects)


def test_guided_scan_matches_the_plain_scan_on_gluings():
    # bound 5 on the 108 hexagon pairs, whose gluings are mean by length 5
    for model in _gluings(5):
        _check_guided_scan(model, 6 if len(model.objects) < 6 else 5)


def test_guided_scan_matches_the_plain_scan_on_fixtures_and_nerves():
    for name in MODEL_FIXTURES:
        model = load(name)
        _check_guided_scan(model)
        if model.mode == pg.model.SIMPLICIAL:
            _check_guided_scan(pg.symmetrize(model))
    for cat in groupoid_pool() + [symmetric_group_3()]:
        _check_guided_scan(pg.nerve_truncation(cat))
    # S3's abelian image is Z2, so its 3-cycles are suspect with the identity
    s3 = pg.nerve_truncation(symmetric_group_3())
    assert pg.abelian_suspects(s3) == (("1@o", "r", "r2"), ("a", "b", "c"))


# S3 is the one nonabelian group here: only its sub-nerves have suspect classes
CERTIFIED_GROUPOIDS = SUB_NERVE_GROUPOIDS + (symmetric_group_3(),)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(range(len(CERTIFIED_GROUPOIDS))), st.integers(0, 2**32),
       st.floats(0.5, 1.0), st.floats(0.2, 1.0), st.sampled_from(NA_GLUINGS))
def test_guided_scan_matches_the_plain_scan_on_sub_nerves(which, seed, edge_p, tri_p,
                                                           gluing):
    model = sub_nerve(pg.nerve_truncation(CERTIFIED_GROUPOIDS[which]),
                      random.Random(seed), edge_p, tri_p)
    _check_guided_scan(model)
    _check_guided_scan(pg.TruncatedModel(model.mode, model.objects,
                                         list(model.edges.values()), ()))
    _check_guided_scan(oriented_half(model))
    _check_guided_scan(model_union(model, gluing), 5)


def test_abelian_suspects_on_the_fixtures():
    for name in ("na_square.pgd", "na_pentagon.pgd"):
        assert pg.abelian_suspects(load(name)) == (("lT", "lT'"), ("lT'^", "lT^"))
    for name in ("a_square.pgd", "free_one_generator.pgd", "horn.pgd"):
        assert pg.abelian_suspects(load(name)) == ()
    assert pg.abelian_suspects(horn_symmetric()) == ()
    assert pg.abelian_suspects(load("example1.pgd")) == (("f", "g", "h"),)
    assert pg.abelian_suspects(load("example2.pgd")) == (("f", "g"),)


def _one_object(*triangles):
    """Loops a, b with inverses and a self-inverse loop x on one object."""
    edges = [pg.Edge("1@o", "o", "o", inv="1@o", is_identity=True),
             pg.Edge("a", "o", "o", inv="a^"), pg.Edge("a^", "o", "o", inv="a"),
             pg.Edge("b", "o", "o", inv="b^"), pg.Edge("b^", "o", "o", inv="b"),
             pg.Edge("x", "o", "o", inv="x")]
    return pg.TruncatedModel("symmetric", ["o"], edges, triangles)


def test_abelian_suspects_reads_one_row_of_every_triangle_orbit():
    # A closed table gives one row per orbit, read off the one image the
    # model keeps.  In (b, a, b) the row cancels down to a; the images of
    # (a, a^, x) hold the self-inverse loop x and differ by the row 2x,
    # which the loop's own row covers.
    # Each spine (b^, b) and (a, a^) has two products here, so neither
    # model validates, but neither has an involution fault.
    for triangle, expected in ((("b", "a", "b"), (("1@o", "a", "a^"),)),
                               (("a", "a^", "x"), (("1@o", "x"),))):
        model = _one_object(triangle)
        assert not model.validate().ok
        assert pg.abelian_suspects(model) == expected == brute_abelian_classes(model)


def _involution_fault_model():
    """e0 and e1 both name e2 as their partner, whose partner is e0."""
    edges = [pg.Edge(f"1@{o}", o, o, inv=f"1@{o}", is_identity=True) for o in "abc"]
    edges += [pg.Edge("e0", "c", "a", inv="e2"), pg.Edge("e1", "a", "c", inv="e2"),
              pg.Edge("e2", "c", "b", inv="e0")]
    return pg.TruncatedModel("symmetric", ["a", "b", "c"], edges, [("e0", "e1", "1@c")])


def test_involution_faults_are_refused():
    # the degenerate product e1·e2 is 1@a, which does not end where e2 does,
    # and (e0, e1, e2) has the values e0 and e2, which are not parallel
    model = _involution_fault_model()
    assert not model.validate().ok
    assert pg.values(model, ("e0", "e1", "e2")) == {"e0", "e2"}
    for call in (lambda: pg.abelian_suspects(model), lambda: pg.mean_scan(model, 3),
                 lambda: pg.mountain(model, "e0", "e0", 3)):
        with pytest.raises(pg.WordError, match="involution"):
            call()


def test_dropping_a_suspect_class_loses_a_planted_witness(monkeypatch):
    planted = model_union(pg.nerve_truncation(pg.cyclic_group(3)), load("na_square.pgd"))
    suspects = pg.abelian_suspects(planted)
    assert suspects == (("RlT", "RlT'"), ("RlT'^", "RlT^"))
    plain = _scan(planted, 4, _parallel_classes(planted))
    assert pg.mean_scan(planted, 4) == plain
    assert plain.witness == ("Rs1", "Rs2", "Rs3")
    monkeypatch.setattr(pg.words, "abelian_suspects", lambda model: suspects[1:])
    assert pg.mean_scan(planted, 4).witness != plain.witness


def test_abelian_suspects_rechecks_every_row(monkeypatch):
    echelon = pg.words._echelon

    def one_row_short(relations):
        basis = echelon(relations)
        del basis[max(basis)]
        return basis

    monkeypatch.setattr(pg.words, "_echelon", one_row_short)
    with pytest.raises(AssertionError, match="re-check"):
        pg.abelian_suspects(load("na_square.pgd"))


def test_calls_on_one_model_answer_as_on_fresh_models():
    # A model keeps its sorted edges and its products-to table once built;
    # mountain, mean_scan and mountain again on one model object answer as
    # each does on a fresh parse, so nothing one call builds for its classes
    # leaks into the next.
    models = [load(name) for name in MODEL_FIXTURES]
    models += [pg.symmetrize(load(name)) for name in ("example1.pgd", "example2.pgd")]
    models += [model for _, model in _na_gluings(4)]
    models.append(model_union(pg.nerve_truncation(pg.cyclic_group(3)), load("na_square.pgd")))
    for model in models:
        f, g = (_parallel_classes(model) or [(None, None)])[0][:2]
        calls = [lambda m: pg.mean_scan(m, 5, collect_all=True), lambda m: pg.mean_scan(m, 4)]
        if f is not None:
            calls = [lambda m: pg.mountain(m, f, g, 5)] + calls + [lambda m: pg.mountain(m, f, g, 5)]
        for call in calls:
            assert call(model) == call(pg.parse_pgd(pg.emit_pgd(model)))


# -- triangle orbits -------------------------------------------------------------------


def _orbit_models():
    """The fixtures and their symmetrizations, the groupoid nerves and every
    NA and A gluing at n = 3..5."""
    models = [load(name) for name in MODEL_FIXTURES]
    models += [pg.symmetrize(m) for m in models if m.mode == pg.model.SIMPLICIAL]
    models += [pg.nerve_truncation(cat) for cat in groupoid_pool()]
    return models + list(_gluings(5))


def _quotients(monkeypatch, models, bound):
    """The constructor arguments of every quotient ``reflect_bounded`` builds
    on ``models``, and the reflections."""
    built, real = [], pg.words.TruncatedModel

    def recording(mode, objects, edges, triangles):
        built.append((mode, objects, list(edges), list(triangles)))
        return real(mode, objects, edges, triangles)

    monkeypatch.setattr(pg.words, "TruncatedModel", recording)
    reflected = [pg.reflect_bounded(model, bound).model for model in models]
    monkeypatch.undo()
    return built, reflected


def test_constructor_closes_each_orbit_once(monkeypatch):
    # Each written orbit is closed once and tested for degeneracy as a
    # whole; the oracle closes every written triangle and tests each image.
    models = _orbit_models()
    models += [_one_object(("b", "a", "b")), _one_object(("a", "a^", "x"))]
    for model in models:
        for written in written_variants(model):
            assert_closed_as_oracle(model.mode, model.objects, model.edges.values(), written)
    # a broken involution closes nothing: each written triangle is its own orbit
    fault = _involution_fault_model()
    written = [("e0", "e1", "1@c"), ("e1", "e0", "1@a"), ("1@c", "e0", "e0")]
    assert assert_closed_as_oracle(fault.mode, fault.objects, fault.edges.values(),
                                   written)._orbits == (("e0", "e1", "1@c"), ("e1", "e0", "1@a"))
    # each quotient writes all six images of every orbit
    built = _quotients(monkeypatch, [m for _, m in _na_gluings(4)], 4)[0]
    assert built
    for args in built:
        assert_closed_as_oracle(*args)


def test_triangle_orbits_match_the_all_image_oracle(monkeypatch):
    # One least image per kept orbit gives the orbits, and the PGD text,
    # that the least image of every stored triangle gave.
    models = _orbit_models()
    models += _quotients(monkeypatch, [m for _, m in _na_gluings(4)], 4)[1]
    texts = []
    for model in models:
        assert model.triangle_orbits() == all_image_orbits(model)
        texts.append(pg.emit_pgd(model))
    monkeypatch.setattr(pg.TruncatedModel, "triangle_orbits", all_image_orbits)
    assert [pg.emit_pgd(model) for model in models] == texts


# -- mountains ---------------------------------------------------------------------


def test_mountain_example1_symmetrized():
    ms = example1_symmetric()
    w = pg.mountain(ms, "f", "g", 7)
    assert w == ("p", "q", "r", "e^", "b", "c")
    assert {"f", "g"} <= pg.values(ms, w)
    assert {"f", "g"} <= brute_values(ms, w)


def test_mountain_absent_in_simplicial_example1():
    m = load("example1.pgd")
    assert pg.mountain(m, "f", "g", 10) is None


def test_mountain_is_the_least_word_at_every_bound():
    # the least word with both values, by brute force over every composable
    # word up to length 6: shortest first, then word_sort_key
    ms = example1_symmetric()
    memo = {}
    found = [word for word in all_composable_words(ms, 6)
             if {"f", "g"} <= brute_values(ms, word, memo)]
    least = min(found, key=lambda word: (len(word), word_sort_key(word)))
    assert len(least) == 6
    assert pg.mountain(ms, "f", "g", 5) is None
    for bound in (6, 7, 8):
        assert pg.mountain(ms, "f", "g", bound) == least


def test_no_short_mountain_in_example1_symmetrized():
    ms = example1_symmetric()
    memo = {}
    for word in all_composable_words(ms, 3):
        vals = brute_values(ms, word, memo)
        assert not {"f", "g"} <= vals


def test_mountain_example2_absent():
    m = load("example2.pgd")
    assert pg.mountain(m, "f", "g", 12) is None


def test_mountain_identity_trick():
    ms = example1_symmetric()
    assert pg.mountain(ms, "f", "f", 2) == ("1@0", "f")


def test_mountain_needs_parallel_edges():
    ms = example1_symmetric()
    with pytest.raises(pg.WordError):
        pg.mountain(ms, "a", "f", 5)


def test_mountain_absent_between_distinct_classes():
    nerve = pg.nerve_truncation(pg.cyclic_group(3))
    assert pg.mountain(nerve, "x", "x2", 8) is None


# -- zigzags ------------------------------------------------------------------------


def test_find_zigzag_example1():
    ms = example1_symmetric()
    zz = pg.find_zigzag(ms, "f", "g", peak_cap=7)
    assert zz.entries == (("f",), ("a", "b", "c"), ("h",),
                          ("p", "q", "r"), ("g",))


def test_find_zigzag_example2_matches_three_peak_chain():
    m = load("example2.pgd")
    zz = pg.find_zigzag(m, "f", "g", peak_cap=5)
    assert zz.entries == (("f",), ("a", "b", "c"), ("a", "p"),
                          ("a", "m", "c'"), ("q", "c'"),
                          ("a'", "b'", "c'"), ("g",))


def test_find_zigzag_stops_expanding_at_the_node_cap(monkeypatch):
    m = load("example2.pgd")
    monkeypatch.setattr(pg.words, "ZIGZAG_NODE_CAP", 5)
    assert pg.find_zigzag(m, "f", "g", peak_cap=5) is None
    monkeypatch.setattr(pg.words, "ZIGZAG_NODE_CAP", 10)
    assert pg.find_zigzag(m, "f", "g", peak_cap=5).peak_count == 3


def test_mountain_from_zigzag_even_case():
    ms = example1_symmetric()
    zz = pg.Zigzag((("f",), ("a", "b", "c"), ("h",), ("p", "q", "r"), ("g",)))
    w = pg.mountain_from_zigzag(ms, zz)
    assert w == ("a", "b", "c", "r^", "q^", "p^", "g")
    assert {"f", "g"} <= pg.values(ms, w)


def test_mountain_from_zigzag_trivial_odd_case():
    ms = example1_symmetric()
    zz = pg.Zigzag((("f",), ("d", "c"), ("f",)))
    assert pg.mountain_from_zigzag(ms, zz) == ("d", "c")


def test_mountain_from_zigzag_rejects_fake_step():
    ms = example1_symmetric()
    zz = pg.Zigzag((("f",), ("a", "b", "c"), ("g",)))
    with pytest.raises(pg.WordError):
        pg.mountain_from_zigzag(ms, zz)


def _random_zigzag(model, rng, peaks=3, start_len=3, cap=4):
    """Random alternating chain built by walking contractions up and down."""
    from pgroupoid.words import contractions

    def random_valley_below(word):
        while True:
            down = contractions(model, word)
            if not down or (len(word) == 1):
                return word
            word = rng.choice(down)

    def random_peak_above(word):
        for _ in range(rng.randrange(1, 3)):
            ups = []
            if len(word) < cap:
                for j in range(len(word)):
                    for f, g in model.products_to(word[j]):
                        ups.append(word[:j] + (f, g) + word[j + 1:])
            if not ups:
                break
            word = rng.choice(ups)
        return word

    while True:
        edges = model.nonidentity_edges()
        word = (rng.choice(edges),)
        entries = [word]
        ok = True
        for _ in range(peaks):
            peak = random_peak_above(entries[-1])
            if peak == entries[-1]:
                ok = False
                break
            entries.append(peak)
            valley = random_valley_below(peak)
            if valley == peak:
                ok = False
                break
            entries.append(valley)
        if ok:
            return pg.Zigzag(tuple(entries))


def test_random_zigzags_satisfy_postcondition():
    t, t2 = pentagon_figure_pair()
    model = pg.build_glued(t, t2).model
    rng = random.Random(7)
    for _ in range(25):
        zz = _random_zigzag(model, rng)
        w = pg.mountain_from_zigzag(model, zz)
        ends = pg.values(model, zz.entries[0]) | pg.values(model, zz.entries[-1])
        assert ends <= pg.values(model, w)
        assert ends <= brute_values(model, w)


# -- presentations --------------------------------------------------------------------


def test_tau_free_partial_group():
    free = load("free_one_generator.pgd")
    pres = pg.tau_presentation(free)
    assert pres.generators == ("x",)
    assert pres.relations == ()
    assert pres.format() == "< x | >"


def test_tau_cyclic_group_nerve():
    nerve = pg.nerve_truncation(pg.cyclic_group(3))
    pres = pg.tau_presentation(nerve)
    assert pres.generators == ("x",)
    assert pres.relations == (("x", "x", "x"),)


def test_tau_na_square_counts():
    na = load("na_square.pgd")
    pres = pg.tau_presentation(na)
    assert len(pres.generators) == 7
    assert len(pres.relations) == 4
    assert ("dT_02^", "s2", "s1") in pres.relations


def test_tau_self_inverse_square_relation():
    nerve2 = pg.nerve_truncation(pg.cyclic_group(2))
    pres = pg.tau_presentation(nerve2)
    assert pres.generators == ("x",)
    assert ("x", "x") in pres.relations


def test_mountain_implies_presentation_equality():
    # each contraction step in a mountain's derivation either names a
    # stored triangle orbit (a relation) or a degenerate simplex (a free
    # groupoid law); replay both derivations at the presentation level
    ms = example1_symmetric()
    w = pg.mountain(ms, "f", "g", 7)
    trees = pg.value_trees(ms, w)
    relations = set(pg.tau_presentation(ms).relations)
    oriented = {}
    for p in ms.edge_pairs():
        oriented[p[0]] = p[0]
        if len(p) == 2:
            oriented[p[1]] = p[0] + "^"

    def check_tree(node):
        if isinstance(node, int):
            return w[node - 1]
        lv = check_tree(node[0])
        rv = check_tree(node[1])
        h = ms.mult(lv, rv)
        assert h is not None
        if ms._degenerate_value(lv, rv) != h:
            rel = (oriented[ms.inv(h)], oriented[rv], oriented[lv])
            rel_orbit = {(oriented[ms.inv(hh)], oriented[gg], oriented[ff])
                         for ff, gg, hh in pg.orbit_images((lv, rv, h), ms.inv)}
            assert rel in rel_orbit
            assert relations & rel_orbit, rel
        return h

    for val in ("f", "g"):
        assert check_tree(trees[val]) == val


# -- reflection ------------------------------------------------------------------------


def test_reflect_na_square():
    na = load("na_square.pgd")
    res = pg.reflect_bounded(na, 3)
    assert dict(res.identified) == {"lT'": "lT", "lT'^": "lT^"}
    long_pairs = [p for p in res.model.edge_pairs()
                  if res.model.edge(p[0]).src == "0"
                  and res.model.edge(p[0]).tgt == "3"]
    assert long_pairs == [("lT", "lT^")]
    assert pg.mean_scan(res.model, 3).is_kind
    assert res.model.validate().ok
    assert res.complete_at_bound


def test_reflect_fixed_point_on_embeddable():
    nerve = pg.nerve_truncation(pg.cyclic_group(3))
    res = pg.reflect_bounded(nerve, 7)
    assert res.model == nerve
    assert res.identified == ()
    assert res.rounds == 0


def test_reflect_example1_identifies_all_three():
    ms = example1_symmetric()
    res = pg.reflect_bounded(ms, 7)
    assert dict(res.identified) == {"g": "f", "g^": "f^", "h": "f", "h^": "f^"}
    assert pg.mean_scan(res.model, 7).is_kind


def _merge_outcome(model, names):
    try:
        merged, rename = pg.words._merge_parallel_edges(model, names)
    except pg.WordError as exc:
        return str(exc)
    return merged._key(), rename


def _reflect_outcome(model, bound):
    res = pg.reflect_bounded(model, bound)
    return res.model._key(), res.identified, res.rounds


def _check_against_stabilizer(model, merges=(), bounds=()):
    """Direct merges of ``merges`` and ``reflect_bounded`` at ``bounds``
    give the same models, renames, identifications and rounds as with
    the stabilize-loop merge; returns how many direct merges identified
    edges beyond the merged ones and their inverses."""
    calls = [(_merge_outcome, names) for names in merges]
    calls += [(_reflect_outcome, bound) for bound in bounds]
    got = [run(model, arg) for run, arg in calls]
    with mock.patch.object(pg.words, "_merge_parallel_edges", stabilized_merge):
        want = [run(model, arg) for run, arg in calls]
    assert got == want
    grown = 0
    for names, outcome in zip(merges, got):
        if isinstance(outcome, str):
            continue  # the merge was refused
        seeds = set(names) | {model.inv(x) for x in names}
        grown += any(new != e for e, new in outcome[1].items() if e not in seeds)
    return grown


def test_merge_matches_stabilizer_on_fixtures():
    grown = sum(_check_against_stabilizer(model, _parallel_pairs(model), range(3, 6))
                for name, model in _fixture_models()
                if model.mode == pg.model.SYMMETRIC)
    assert grown == 6


def test_merge_matches_stabilizer_on_na_gluings():
    grown = sum(_check_against_stabilizer(model, [("lT", "lT'")], range(3, 6))
                for name, model in _na_gluings(5))
    assert grown == 32
    # some reflections need more than one round at bound 5
    assert any(pg.reflect_bounded(model, 5).rounds > 1 for _, model in _na_gluings(5))


@settings(max_examples=25, deadline=None)
@given(st.sampled_from(range(len(SUB_NERVE_GROUPOIDS))), st.integers(0, 2**32),
       st.floats(0.5, 1.0), st.floats(0.5, 1.0))
def test_merge_matches_stabilizer_on_sub_nerves(which, seed, edge_p, tri_p):
    rng = random.Random(seed)
    model = sub_nerve(pg.nerve_truncation(SUB_NERVE_GROUPOIDS[which]), rng, edge_p, tri_p)
    pairs = _parallel_pairs(model)
    _check_against_stabilizer(model, rng.sample(pairs, min(len(pairs), 6)))


# -- pregroup axiom ---------------------------------------------------------------------


def test_pregroup_horn_counterexample():
    horn = horn_symmetric()
    rep = pg.pregroup_axiom_check(horn)
    assert not rep.ok
    assert rep.counterexample == ("u", "v", "w")
    assert rep.left is None       # (uv)w undefined
    assert rep.right == "y"       # u(vw) = y


def test_pregroup_passes_on_nerves():
    for cat in (pg.cyclic_group(3), pg.cyclic_group(4),
                pg.interval_groupoid()):
        nerve = pg.nerve_truncation(cat)
        assert pg.pregroup_axiom_check(nerve).ok


def test_pregroup_na_square_regression():
    na = load("na_square.pgd")
    rep = pg.pregroup_axiom_check(na)
    assert not rep.ok
    assert rep.counterexample == ("dT'_13", "s3^", "dT_02^")
    assert rep.left == "s1^" and rep.right is None


# -- property tests over random words ------------------------------------------------


@st.composite
def _random_word(draw):
    model = example1_symmetric()
    edges = model.nonidentity_edges()
    start = draw(st.sampled_from(edges))
    word = [start]
    for _ in range(draw(st.integers(min_value=0, max_value=4))):
        outs = [e for e in model.out_edges(model.edge(word[-1]).tgt)
                if not model.is_identity(e)]
        word.append(draw(st.sampled_from(outs)))
    return tuple(word)


@settings(max_examples=60, deadline=None)
@given(_random_word())
def test_values_dp_equals_brute_on_random_words(word):
    model = example1_symmetric()
    assert pg.values(model, word) == brute_values(model, word)


@settings(max_examples=60, deadline=None)
@given(_random_word())
def test_contraction_preserves_values(word):
    model = example1_symmetric()
    from pgroupoid.words import contractions
    vals = pg.values(model, word)
    for shorter in contractions(model, word):
        assert pg.values(model, shorter) <= vals
