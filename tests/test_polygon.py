import os
import pathlib
import random
import subprocess
import sys
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

import pgroupoid as pg
from pgroupoid.monoid import reduce_model

from helpers import (
    MODEL_FIXTURES,
    SUB_NERVE_GROUPOIDS,
    load,
    oracle_diagonal_sets,
    pentagon_figure_pair,
    pentagon_incompatible_pair,
    renamed_peel_step,
    square_pair,
    sub_nerve,
)


# -- enumeration ---------------------------------------------------------------


def test_triangulation_counts():
    assert len(pg.enumerate_triangulations(3)) == 2
    assert len(pg.enumerate_triangulations(4)) == 5
    assert len(pg.enumerate_triangulations(5)) == 14


def test_triangulations_match_noncrossing_oracle():
    for n in (3, 4, 5, 6):
        ours = {t.diagonals() for t in pg.enumerate_triangulations(n)}
        assert ours == oracle_diagonal_sets(n)


def test_triangulation_validation():
    with pytest.raises(pg.TriangulationError):
        pg.Triangulation.of(3, [(0, 1, 2)])  # wrong count
    with pytest.raises(pg.TriangulationError):
        pg.Triangulation.of(3, [(0, 1, 2), (1, 2, 3)])  # side 12 used twice
    with pytest.raises(pg.TriangulationError):
        pg.enumerate_triangulations(1)


# -- tamari bijection -----------------------------------------------------------


def test_tamari_pinned_examples():
    left = pg.tamari_to_triangulation(((1, 2), 3))
    assert left.triples == {(0, 1, 2), (0, 2, 3)}
    right = pg.tamari_to_triangulation((1, (2, 3)))
    assert right.triples == {(0, 1, 3), (1, 2, 3)}


def test_tamari_round_trip_all_n5():
    for t in pg.enumerate_triangulations(5):
        tree = pg.triangulation_to_tamari(t)
        assert pg.tamari_to_triangulation(tree) == t
    trees = {pg.triangulation_to_tamari(t)
             for t in pg.enumerate_triangulations(5)}
    assert len(trees) == 14


def test_parse_parenthesization():
    assert pg.parse_parenthesization("((1 2) 3)") == ((1, 2), 3)
    assert pg.parse_parenthesization("(1 (2 3))") == (1, (2, 3))
    with pytest.raises(pg.TriangulationError):
        pg.parse_parenthesization("((1 2)")
    with pytest.raises(pg.TriangulationError):
        pg.tamari_to_triangulation((2, 1))


# -- flips and classification ------------------------------------------------------


def test_flip_adjacent():
    t, t2 = square_pair()
    assert pg.flip_adjacent(t, t2)
    assert not pg.flip_adjacent(t, t)
    fan0 = pg.Triangulation.of(4, [(0, 1, 2), (0, 2, 3), (0, 3, 4)])
    fan4 = pg.Triangulation.of(4, [(0, 1, 4), (1, 2, 4), (2, 3, 4)])
    assert not pg.flip_adjacent(fan0, fan4)


def test_pair_classify_figures():
    a, b = pentagon_incompatible_pair()
    assert pg.pair_classify(a, b) == pg.INCOMPATIBLE
    t, t2 = pentagon_figure_pair()
    assert pg.pair_classify(t, t2) == pg.WELL_BEHAVED
    s, s2 = square_pair()
    assert pg.pair_classify(s, s2) == pg.WELL_BEHAVED
    assert pg.pair_classify(s, s) == pg.INCOMPATIBLE


def test_flip_adjacent_pairs_never_well_behaved_above_square():
    for n in (4, 5):
        tris = pg.enumerate_triangulations(n)
        seen = 0
        for t in tris:
            for t2 in tris:
                if t is not t2 and pg.flip_adjacent(t, t2):
                    seen += 1
                    assert pg.pair_classify(t, t2) != pg.WELL_BEHAVED
        assert seen > 0


# -- gluings -------------------------------------------------------------------------


def test_build_glued_square_counts():
    t, t2 = square_pair()
    glued = pg.build_glued(t, t2, variant="na")
    assert glued.model.counts()["objects"] == 4
    assert len(glued.model.edge_pairs()) == 7
    assert len(glued.model.triangle_orbits()) == 4
    assert glued.model.validate().ok
    scan = pg.mean_scan(glued.model, 3)
    assert scan.witness == glued.spine
    assert set(scan.witness_values) == {"lT", "lT'"}


def test_build_glued_pentagon_figure():
    t, t2 = pentagon_figure_pair()
    glued = pg.build_glued(t, t2, variant="na")
    pairs = glued.model.edge_pairs()
    spine = [p for p in pairs if p[0].startswith("s")]
    diag = [p for p in pairs if p[0].startswith("d")]
    longs = [p for p in pairs if p[0].startswith("l")]
    assert (len(spine), len(diag), len(longs)) == (4, 4, 2)
    assert len(glued.model.triangle_orbits()) == 6
    assert {d[0] for d in diag} == {"dT_13", "dT_14", "dT'_02", "dT'_24"}


def test_build_glued_square_a_variant():
    t, t2 = square_pair()
    glued = pg.build_glued(t, t2, variant="a")
    assert glued.long_t == glued.long_t2 == "l"
    assert len(glued.model.edge_pairs()) == 6
    assert pg.mean_scan(glued.model, 6).is_kind


def test_build_glued_permission_errors():
    a, b = pentagon_incompatible_pair()
    with pytest.raises(pg.GluingError):
        pg.build_glued(a, b, variant="na")
    raw = pg.build_raw_gluing(a, b)
    report = raw.validate()
    assert not report.ok
    assert any(v.kind == "spine-collision" for v in report.violations)

    # compatible but not well-behaved: hexagon pair sharing the wrap triangle
    t = pg.Triangulation.of(5, [(0, 1, 4), (1, 3, 4), (1, 2, 3), (0, 4, 5)])
    t2 = pg.Triangulation.of(5, [(0, 1, 2), (0, 2, 4), (2, 3, 4), (0, 4, 5)])
    assert pg.pair_classify(t, t2) == pg.COMPATIBLE
    with pytest.raises(pg.GluingError):
        pg.build_glued(t, t2, variant="a")
    raw = pg.build_raw_gluing(t, t2, circular=True)
    assert not raw.validate().ok


def test_raw_gluing_refuses_polygons_beyond_the_name_limit():
    n = pg.polygon.MAX_GLUED_N + 1
    fan = pg.Triangulation.of(n, [(0, k, k + 1) for k in range(1, n)])
    with pytest.raises(pg.TriangulationError, match=f"n <= {pg.polygon.MAX_GLUED_N}"):
        pg.build_raw_gluing(fan, fan)


def test_raw_gluing_validates_iff_compatible():
    for n in (3, 4, 5):
        tris = pg.enumerate_triangulations(n)
        for t in tris:
            for t2 in tris:
                ok = pg.build_raw_gluing(t, t2).validate().ok
                assert ok == (pg.pair_classify(t, t2) != pg.INCOMPATIBLE)


def test_reused_violator_gluings_are_the_validated_ones():
    # a violated pair is always the first member of its class
    for n in (3, 4, 5, 6):
        seen = set()
        for t, t2, cls in pg.polygon._pair_classes(n):
            if cls in seen:
                continue
            seen.add(cls)
            glued = pg.build_glued(t, t2)
            assert pg.polygon._na_gluing(t, t2) == glued


def test_circular_gluing_validates_iff_well_behaved():
    for n in (3, 4):
        tris = pg.enumerate_triangulations(n)
        for t in tris:
            for t2 in tris:
                ok = pg.build_raw_gluing(t, t2, circular=True).validate().ok
                assert ok == (pg.pair_classify(t, t2) == pg.WELL_BEHAVED)


def test_na_spine_word_values_are_long_edges():
    for n in (3, 4):
        tris = pg.enumerate_triangulations(n)
        for t in tris:
            for t2 in tris:
                if pg.pair_classify(t, t2) == pg.INCOMPATIBLE:
                    continue
                glued = pg.build_glued(t, t2)
                vals = pg.values(glued.model, glued.spine)
                assert vals == {"lT", "lT'"}


# -- peeling ---------------------------------------------------------------------------


def _hexagon_wrap_pair():
    t = pg.Triangulation.of(5, [(0, 1, 4), (1, 3, 4), (1, 2, 3), (0, 4, 5)])
    t2 = pg.Triangulation.of(5, [(0, 1, 2), (0, 2, 4), (2, 3, 4), (0, 4, 5)])
    return t, t2


def test_peel_hexagon_to_pentagon_figure():
    t, t2 = _hexagon_wrap_pair()
    target = pg.build_glued(t, t2).model
    res = pg.peel(t, t2, pg.identity_hom(target), target)
    pt, pt2 = pentagon_figure_pair()
    assert res.t == pt and res.t2 == pt2
    assert res.steps == 1
    small = pg.build_glued(res.t, res.t2).model
    assert pg.verify_hom(small, target, res.hom)


def test_peel_rejects_well_behaved():
    t, t2 = square_pair()
    target = pg.build_glued(t, t2).model
    with pytest.raises(pg.GluingError):
        pg.peel(t, t2, pg.identity_hom(target), target)


def test_peel_other_wrap_vertex():
    # share the (n,0,1) triangle instead, peeling deletes vertex 0
    t = pg.Triangulation.of(4, [(0, 1, 4), (1, 2, 3), (1, 3, 4)])
    t2 = pg.Triangulation.of(4, [(0, 1, 4), (1, 2, 4), (2, 3, 4)])
    assert pg.pair_classify(t, t2) == pg.COMPATIBLE
    target = pg.build_glued(t, t2).model
    res = pg.peel(t, t2, pg.identity_hom(target), target)
    assert res.t.n == 3
    small = pg.build_glued(res.t, res.t2).model
    assert pg.verify_hom(small, target, res.hom)


def test_peel_rejects_a_map_that_is_not_a_hom():
    # the identity of the gluing with s2 sent to s3 breaks the triangles at s2
    t = pg.Triangulation.of(4, [(0, 1, 4), (1, 2, 3), (1, 3, 4)])
    t2 = pg.Triangulation.of(4, [(0, 1, 4), (1, 2, 4), (2, 3, 4)])
    target = pg.build_glued(t, t2).model
    ident = pg.identity_hom(target)
    hom = pg.Hom.of(ident.vertices, {**ident.edges, "s2": "s3"})
    for peel in (pg.peel, pg.peel_step):
        with pytest.raises(pg.GluingError, match="not a hom"):
            peel(t, t2, hom, target)


def test_peel_matches_the_renamed_composite():
    # every compatible, not well-behaved pair at n = 4..6, peeled from the
    # identity of its gluing; the n = 4 pairs also from every 50th of their
    # 6,068 maps into the pentagon fixture
    pentagon = load("na_pentagon.pgd")
    runs = []
    for n in (4, 5, 6):
        tris = pg.enumerate_triangulations(n)
        for t in tris:
            for t2 in tris:
                if pg.pair_classify(t, t2) != pg.COMPATIBLE:
                    continue
                target = pg.build_glued(t, t2).model
                runs.append((t, t2, pg.identity_hom(target), target))
                if n == 4:
                    homs = pg.enumerate_homs(target, pentagon)[::50]
                    runs.extend((t, t2, hom, pentagon) for hom in homs)
    got = [pg.peel(*run) for run in runs]
    with mock.patch.object(pg.polygon, "peel_step", renamed_peel_step):
        want = [pg.peel(*run) for run in runs]
    assert got == want
    assert len(runs) == 248 + 124


def test_peel_preserves_long_edge_identification():
    t, t2 = _hexagon_wrap_pair()
    na = pg.build_glued(t, t2)
    targets = [
        pg.nerve_truncation(pg.cyclic_group(2)),
        pg.nerve_truncation(pg.cyclic_group(3)),
        pg.nerve_truncation(pg.pair_groupoid(["a", "b"])),
        pg.build_glued(*pentagon_figure_pair()).model,
        na.model,
    ]
    rng = random.Random(11)
    checked = 0
    for target in targets:
        homs = list(pg.iter_homs(na.model, target))
        rng.shuffle(homs)
        for hom in homs[:40]:
            before = hom.edge(na.long_t) == hom.edge(na.long_t2)
            res = pg.peel(t, t2, hom, target)
            small = pg.build_glued(res.t, res.t2)
            after = (res.hom.edge(small.long_t)
                     == res.hom.edge(small.long_t2))
            assert before == after
            checked += 1
    assert checked >= 100


# -- orthogonality -----------------------------------------------------------------------


def test_orthogonality_nerve_passes():
    nerve = pg.nerve_truncation(pg.cyclic_group(3))
    res = pg.orthogonality_check(nerve, 4)
    assert res.ok
    assert res.pairs_checked > 0


def test_orthogonality_na_square_identity_violator():
    na = pg.fixtures.load_model("na_square.pgd")
    res = pg.orthogonality_check(na, 3)
    assert not res.ok
    t, t2, hom = res.violator
    s, s2 = square_pair()
    assert (t, t2) == (s, s2)
    assert hom.is_identity()


def _raises_on_a_reused_gluing(target, max_n):
    """The check raises AssertionError although its violator's gluing is
    reused, not rebuilt."""
    reused = pg.polygon._na_gluing.cache_info().hits
    with pytest.raises(AssertionError):
        pg.orthogonality_check(target, max_n)
    assert pg.polygon._na_gluing.cache_info().hits == reused + 1


def test_orthogonality_rechecks_its_violator_with_values(monkeypatch):
    na = pg.fixtures.load_model("na_pentagon.pgd")
    assert not pg.orthogonality_check(na, 4).ok
    monkeypatch.setattr(pg.words, "values", lambda model, word: frozenset({"lT"}))
    _raises_on_a_reused_gluing(na, 4)


def test_orthogonality_rechecks_its_violator_with_verify_hom(monkeypatch):
    na = pg.fixtures.load_model("na_square.pgd")
    assert not pg.orthogonality_check(na, 3).ok
    monkeypatch.setattr(pg.polygon, "verify_hom", lambda source, target, hom: False)
    _raises_on_a_reused_gluing(na, 3)


def test_orthogonality_refuses_gon_bounds_outside_the_gluing_range(monkeypatch):
    def no_walk(*args):
        raise AssertionError("walked spine words")

    monkeypatch.setattr(pg.polygon, "_spine_words", no_walk)
    top = pg.polygon.MAX_GLUED_N
    for target in (load("na_square.pgd"), pg.nerve_truncation(pg.cyclic_group(3))):
        for max_n in (-1, 0, 2, top + 1):
            with pytest.raises(pg.TriangulationError, match=f"3 <= max_n <= {top}"):
                pg.orthogonality_check(target, max_n)


def test_orthogonality_square_a_passes():
    a = pg.fixtures.load_model("a_square.pgd")
    res = pg.orthogonality_check(a, 4)
    assert res.ok


def test_violator_from_mean_word_round_trip():
    na = pg.fixtures.load_model("na_square.pgd")
    t, t2, hom = pg.violator_from_mean_word(na, ("s1", "s2", "s3"))
    glued = pg.build_glued(t, t2)
    assert pg.verify_hom(glued.model, na, hom)
    assert hom.edge(glued.long_t) != hom.edge(glued.long_t2)


def test_violator_from_mean_word_shortens_shared_groupings():
    # the pentagon spine word is mean; its two parenthesization trees share
    # no grouping, so the pair comes straight from the trees
    t, t2 = pentagon_figure_pair()
    na = pg.build_glued(t, t2)
    vt, vt2, hom = pg.violator_from_mean_word(na.model, na.spine)
    glued = pg.build_glued(vt, vt2)
    assert pg.verify_hom(glued.model, na.model, hom)
    assert hom.edge(glued.long_t) != hom.edge(glued.long_t2)
    # a word with a shared grouping contracts first: pad the square spine
    sq = pg.fixtures.load_model("na_square.pgd")
    word = ("s1", "s1^", "s1", "s2", "s3")
    assert pg.is_mean(sq, word)
    wt, wt2, hom2 = pg.violator_from_mean_word(sq, word)
    small = pg.build_glued(wt, wt2)
    assert pg.verify_hom(small.model, sq, hom2)
    assert hom2.edge(small.long_t) != hom2.edge(small.long_t2)


def _round_trip_models():
    """Symmetric and symmetrized fixtures, and every compatible NA gluing
    at n = 3..5."""
    for name in MODEL_FIXTURES:
        model = load(name)
        yield model if model.mode == pg.model.SYMMETRIC else pg.symmetrize(model)
    for n in (3, 4, 5):
        tris = pg.enumerate_triangulations(n)
        for t in tris:
            for t2 in tris:
                if pg.pair_classify(t, t2) != pg.INCOMPATIBLE:
                    yield pg.build_glued(t, t2).model


def test_mean_witnesses_peel_to_well_behaved_violators():
    # mean witness -> violator_from_mean_word -> peel: a well-behaved pair
    # with n <= L and a long-edge-splitting hom into the model
    checked = 0
    for model in _round_trip_models():
        witnesses = {pg.mean_scan(model, L).witness: L for L in (5, 4, 3)}
        witnesses.pop(None, None)
        for word, L in witnesses.items():
            t, t2, hom = pg.violator_from_mean_word(model, word)
            if pg.pair_classify(t, t2) != pg.WELL_BEHAVED:
                peeled = pg.peel(t, t2, hom, model)
                t, t2, hom = peeled.t, peeled.t2, peeled.hom
            assert pg.pair_classify(t, t2) == pg.WELL_BEHAVED
            assert t.n <= L
            glued = pg.build_glued(t, t2)
            assert pg.verify_hom(glued.model, model, hom)
            assert hom.edge(glued.long_t) != hom.edge(glued.long_t2)
            checked += 1
    assert checked == 128


def test_identifying_homs_factor_through_circular_gluing():
    t, t2 = square_pair()
    na = pg.build_glued(t, t2, variant="na")
    a = pg.build_glued(t, t2, variant="a")
    nerve = pg.nerve_truncation(pg.cyclic_group(3))
    homs = pg.enumerate_homs(na.model, nerve)
    factored = set()
    for hom in homs:
        through = pg.factor_through_circular(na, hom)
        assert pg.verify_hom(a.model, nerve, through)
        # composing back along the cell-by-cell projection recovers hom
        for name in na.model.edges:
            base = name[:-1] if name.endswith("^") else name
            proj = name.replace(base, "l") if base in ("lT", "lT'") else name
            assert hom.edge(name) == through.edge(proj)
        factored.add(through)
    # distinct identifying maps factor distinctly (uniqueness)
    assert len(factored) == len(set(homs))
    with pytest.raises(pg.GluingError):
        pg.factor_through_circular(na, pg.identity_hom(na.model))


def test_bounded_meanness_matches_orthogonality():
    # folklore theorem: kind at bound L <-> orthogonal to every gluing up to
    # the (L+1)-gon; reduction theorem: the reduced model gets both verdicts too
    models = [load(name) for name in MODEL_FIXTURES]
    models = [m if m.mode == pg.model.SYMMETRIC else pg.symmetrize(m) for m in models]
    models += [pg.nerve_truncation(pg.cyclic_group(3)),
               pg.nerve_truncation(pg.pair_groupoid(["a", "b", "c"]))]
    verdicts = set()
    for model in models:
        reduced = reduce_model(model)
        for L in (3, 4, 5):
            kind = pg.mean_scan(model, L).is_kind
            assert pg.orthogonality_check(model, L).ok == kind
            assert pg.mean_scan(reduced, L).is_kind == kind
            assert pg.orthogonality_check(reduced, L).ok == kind
            verdicts.add(kind)
    assert verdicts == {True, False}


# -- spine-word search against the generic hom search ---------------------------------


def _reference_orthogonality(target, max_n):
    """Glue every pair and run ``iter_homs``; stop after the first pair
    with a splitting hom, returning all of that pair's splitting homs."""
    pairs = homs = 0
    for n in range(3, max_n + 1):
        tris = pg.enumerate_triangulations(n)
        for t in tris:
            for t2 in tris:
                if pg.pair_classify(t, t2) != pg.WELL_BEHAVED:
                    continue
                pairs += 1
                glued = pg.build_glued(t, t2)
                splitting = []
                for hom in pg.iter_homs(glued.model, target):
                    homs += 1
                    if hom.edge(glued.long_t) != hom.edge(glued.long_t2):
                        splitting.append(hom)
                if splitting:
                    return False, pairs, homs, (t, t2, glued, splitting)
    return True, pairs, homs, None


def _equivalence_targets():
    yield "Z2 nerve", pg.nerve_truncation(pg.cyclic_group(2))
    yield "Z3 nerve", pg.nerve_truncation(pg.cyclic_group(3))
    yield "pair(2) nerve", pg.nerve_truncation(pg.pair_groupoid(["a", "b"]))
    yield "a_square", pg.fixtures.load_model("a_square.pgd")
    yield "free_one_generator", pg.fixtures.load_model("free_one_generator.pgd")
    for n in (3, 4):
        tris = pg.enumerate_triangulations(n)
        for i, t in enumerate(tris):
            for j, t2 in enumerate(tris):
                if pg.pair_classify(t, t2) == pg.WELL_BEHAVED:
                    yield f"NA({n}; {i}, {j})", pg.build_glued(t, t2).model


def test_spine_word_search_matches_generic_hom_search():
    mean_seen = 0
    for label, target in _equivalence_targets():
        for max_gon in (3, 4):
            res = pg.orthogonality_check(target, max_gon)
            ok, pairs, homs, first = _reference_orthogonality(target, max_gon)
            where = f"{label} @ {max_gon}"
            assert (res.ok, res.pairs_checked, res.homs_checked) == (ok, pairs, homs), where
            if ok:
                assert res.violator is None, where
                continue
            mean_seen += 1
            t, t2, glued, splitting = first
            vt, vt2, hom = res.violator
            assert (vt, vt2) == (t, t2), where
            assert pg.verify_hom(glued.model, target, hom), where
            assert hom.edge(glued.long_t) != hom.edge(glued.long_t2), where
            # the reported hom is the one of the least splitting spine word
            assert hom in splitting, where
            assert min(splitting, key=lambda h: pg.words.word_sort_key(
                tuple(h.edge(s) for s in glued.spine))) == hom, where
    assert mean_seen >= 4


# -- one walk per swap/mirror class against the per-pair walk --------------------------


def _per_pair_orthogonality(target, max_n):
    """Walk the spine words of every well-behaved pair; the violator is the
    least splitting word of the first pair that has one."""
    tables = pg.polygon._walk_tables(target)
    pairs = homs = 0
    for n in range(3, max_n + 1):
        tris = pg.enumerate_triangulations(n)
        for t in tris:
            for t2 in tris:
                if pg.pair_classify(t, t2) != pg.WELL_BEHAVED:
                    continue
                pairs += 1
                count, splitting = pg.polygon._spine_words(tables, t, t2)
                homs += count
                if splitting:
                    word = min(splitting, key=pg.words.word_sort_key)
                    hom = pg.polygon._splitting_hom(target, t, t2, word)
                    return False, pairs, homs, (t, t2, hom)
    return True, pairs, homs, None


def _check_against_per_pair_walk(target, max_n):
    res = pg.orthogonality_check(target, max_n)
    expected = _per_pair_orthogonality(target, max_n)
    assert (res.ok, res.pairs_checked, res.homs_checked, res.violator) == expected
    return res


def test_reused_violator_gluing_never_leaks():
    t, t2 = square_pair()
    first, second = pg.build_glued(t, t2), pg.build_glued(t, t2)
    assert first is not second and first.model is not second.model
    # NA(4; 0, 3) and NA(4; 1, 2) both violate first on one pentagon pair
    tris = pg.enumerate_triangulations(4)
    targets = [pg.build_glued(tris[0], tris[3]).model,
               pg.build_glued(tris[1], tris[2]).model]
    expected = []
    for target in targets:
        pg.polygon._na_gluing.cache_clear()
        expected.append(_per_pair_orthogonality(target, 4))
    assert expected[0][3][:2] == expected[1][3][:2]
    assert expected[0][3][2] != expected[1][3][2]
    for order in ((0, 1), (1, 0)):
        pg.polygon._na_gluing.cache_clear()
        for which in order:
            res = pg.orthogonality_check(targets[which], 4)
            assert (res.ok, res.pairs_checked, res.homs_checked,
                    res.violator) == expected[which]
            vt, vt2, hom = res.violator
            fresh = pg.build_glued(vt, vt2)
            assert fresh is not pg.polygon._na_gluing(vt, vt2)
            assert pg.verify_hom(fresh.model, targets[which], hom)


def test_class_walk_matches_per_pair_walk_at_gon_five():
    for target in (pg.nerve_truncation(pg.cyclic_group(2)),
                   pg.nerve_truncation(pg.cyclic_group(3)),
                   pg.nerve_truncation(pg.pair_groupoid(["a", "b"])),
                   load("a_square.pgd"), load("free_one_generator.pgd")):
        assert _check_against_per_pair_walk(target, 5).ok
    positions = set()
    tris = pg.enumerate_triangulations(5)
    for t in tris:
        for t2 in tris:
            if pg.pair_classify(t, t2) == pg.WELL_BEHAVED:
                res = _check_against_per_pair_walk(pg.build_glued(t, t2).model, 5)
                assert not res.ok
                positions.add(res.pairs_checked)
    assert len(positions) >= 3


@settings(max_examples=25, deadline=None)
@given(st.sampled_from(range(len(SUB_NERVE_GROUPOIDS))), st.integers(0, 2**32),
       st.floats(0.5, 1.0), st.floats(0.5, 1.0))
def test_class_walk_matches_per_pair_walk_on_sub_nerves(which, seed, edge_p, tri_p):
    nerve = pg.nerve_truncation(SUB_NERVE_GROUPOIDS[which])
    model = sub_nerve(nerve, random.Random(seed), edge_p, tri_p)
    assert model.validate().ok
    assert _check_against_per_pair_walk(model, 5).ok


def _mirror(t):
    n = t.n
    return pg.Triangulation.of(n, [(n - k, n - j, n - i) for i, j, k in t.triples])


def test_swapped_and_mirrored_pairs_have_the_same_spine_words():
    targets = (load("na_square.pgd"), load("na_pentagon.pgd"), load("a_square.pgd"),
               pg.nerve_truncation(pg.cyclic_group(3)))
    splitting_pairs = 0
    for target in targets:
        tables = pg.polygon._walk_tables(target)

        def walk(t, t2):
            count, splitting = pg.polygon._spine_words(tables, t, t2)
            return count, set(splitting)

        for n in (3, 4, 5):
            classes = {(t, t2): cls for t, t2, cls in pg.polygon._pair_classes(n)}
            for (t, t2), cls in classes.items():
                m, m2 = _mirror(t), _mirror(t2)
                assert classes[(t2, t)] == classes[(m, m2)] == cls
                count, splitting = walk(t, t2)
                assert walk(t2, t) == (count, splitting)
                reversed_inverses = {tuple(target.inv(a) for a in reversed(word))
                                     for word in splitting}
                assert walk(m, m2) == (count, reversed_inverses)
                splitting_pairs += bool(splitting)
    assert splitting_pairs > 0


def test_pair_classes_split_the_well_behaved_pairs():
    sizes = []
    for n in (3, 4, 5, 6):
        table = pg.polygon._pair_classes(n)
        tris = pg.enumerate_triangulations(n)
        assert [(t, t2) for t, t2, _ in table] == [
            (t, t2) for t in tris for t2 in tris
            if pg.pair_classify(t, t2) == pg.WELL_BEHAVED]
        ids = [cls for *_, cls in table]
        assert sorted(set(ids)) == list(range(len(set(ids))))
        assert all(ids[k] <= max(ids[:k], default=-1) + 1 for k in range(len(ids)))
        sizes.append((len(set(ids)), len(table)))
    assert sizes == [(1, 2), (3, 10), (23, 80), (184, 714)]


def test_import_builds_no_pair_class_table():
    src = pathlib.Path(pg.__file__).resolve().parents[1]
    code = ("import pgroupoid.cli, pgroupoid.polygon as polygon\n"
            "for cache in (polygon._pair_classes, polygon._walk_plan, polygon._na_gluing):\n"
            "    print(cache.cache_info().currsize)")
    done = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": str(src)},
                          check=True)
    assert done.stdout.split() == ["0", "0", "0"]


def test_cli_import_loads_no_dataclasses_inspect_or_typing():
    # each of these costs milliseconds of every CLI call's start-up
    src = pathlib.Path(pg.__file__).resolve().parents[1]
    code = (f"import sys\nsys.path.insert(0, {str(src)!r})\nimport pgroupoid.cli\n"
            "print(sorted({'dataclasses', 'inspect', 'typing'} & set(sys.modules)))")
    done = subprocess.run([sys.executable, "-I", "-S", "-c", code],
                          capture_output=True, text=True, check=True)
    assert done.stdout == "[]\n"
