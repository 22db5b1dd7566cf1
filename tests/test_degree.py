import itertools
import random

import pytest

import pgroupoid as pg
from pgroupoid.degree import StarryWord, degree_model

from helpers import (
    MODEL_FIXTURES,
    SUB_NERVE_GROUPOIDS,
    brute_starry_members,
    load,
    pentagon_figure_pair,
    square_pair,
    sub_nerve,
)


def _star(model, source, *legs):
    return pg.starry_member(model, StarryWord(source, tuple(legs)))


# -- membership ------------------------------------------------------------------


def test_member_pairs_from_triangles():
    na = load("na_square.pgd")
    assert _star(na, "0", "s1", "dT_02")      # spine and long of (s1,s2,dT_02)
    assert _star(na, "0", "dT_02", "lT")
    assert not _star(na, "0", "s1", "lT")     # no triangle joins them
    assert not _star(na, "0", "lT", "lT'")


def test_member_degenerate_forms():
    na = load("na_square.pgd")
    assert _star(na, "0", "1@0", "s1")
    assert _star(na, "0", "s1", "s1")
    assert _star(na, "0", "s1", "1@0")
    assert _star(na, "0", "s1", "s1", "s1")   # image of s1 under [3] -> [1]
    assert _star(na, "0", "1@0", "1@0")


def test_member_requires_common_source():
    na = load("na_square.pgd")
    with pytest.raises(pg.DegreeError):
        _star(na, "0", "s1", "s2")


def test_member_triple_examples():
    na = load("na_square.pgd")
    # no single triangle carries s1, dT_02, and a long edge out of vertex 0,
    # so neither triple is the star of a simplex in the 2-dimensional model
    assert _star(na, "0", "s1", "dT_02")
    assert not _star(na, "0", "s1", "dT_02", "lT")
    assert not _star(na, "0", "s1", "dT_02", "lT'")
    assert _star(na, "1", "s1^", "dT'_13")


def test_length_three_member_via_triangle_pullback():
    na = load("na_square.pgd")
    # legs (s1, s1, dT_02) factor through the triangle (s1, s2, dT_02)
    # along [3] -> [2], 0,1,2,3 -> 0,1,1,2
    assert _star(na, "0", "s1", "s1", "dT_02")


def _symmetric_models():
    for name in MODEL_FIXTURES:
        model = load(name)
        yield model if model.mode == "symmetric" else pg.symmetrize(model)
    yield pg.nerve_truncation(pg.cyclic_group(3))
    yield pg.nerve_truncation(pg.interval_groupoid())


GLUABLE = {"na": (pg.COMPATIBLE, pg.WELL_BEHAVED), "a": (pg.WELL_BEHAVED,)}


def _gluings(ns):
    """Every NA and A gluing of the (n+1)-gon for n in ``ns``."""
    for n in ns:
        tris = pg.enumerate_triangulations(n)
        for t in tris:
            for t2 in tris:
                for variant in ("na", "a"):
                    if pg.pair_classify(t, t2) in GLUABLE[variant]:
                        yield pg.build_glued(t, t2, variant).model


def _drawn_sub_nerves(count):
    rng = random.Random(20)
    nerves = [pg.nerve_truncation(g) for g in SUB_NERVE_GROUPOIDS]
    nerves.append(pg.nerve_truncation(pg.pair_groupoid(["a", "b", "c", "d"])))
    for _ in range(count):
        yield sub_nerve(rng.choice(nerves), rng, rng.uniform(0.5, 0.95),
                        rng.uniform(0.2, 0.8))


def test_starry_member_matches_pullback_oracle():
    # every word of length 2 and 3 on the small models; on all of them the
    # degree witnesses are the first words of distinct nonidentity legs
    # that the oracle's member pairs make bounding or not
    small = list(_symmetric_models()) + list(_gluings((3, 4)))
    small += list(_drawn_sub_nerves(60))
    cases = [(model, n) for model in small for n in (2, 3)]
    cases.append((load("na_square.pgd"), 4))
    checked = 0
    for model, n in cases:
        for source in model.objects:
            members = brute_starry_members(model, source, n)
            for legs in itertools.product(model.out_edges(source), repeat=n):
                assert _star(model, source, *legs) == (legs in members), legs
                checked += 1
    assert checked > 6000
    # every gluing at n = 5, every tenth at n = 6 (all 1,644 take 30 s)
    sixes = itertools.islice(_gluings((6,)), 0, None, 10)
    for model in small + list(_gluings((5,))) + list(sixes):
        first_triple = first_outside = None
        for source in model.objects:
            legs = [e for e in model.out_edges(source) if not model.is_identity(e)]
            pairs = brute_starry_members(model, source, 2)
            triples = brute_starry_members(model, source, 3)
            for triple in itertools.combinations(legs, 3):
                assert triple not in triples
                if first_triple is None and all(
                        p in pairs for p in itertools.combinations(triple, 2)):
                    first_triple = StarryWord(source, triple)
            for pair in itertools.combinations(legs, 2):
                if first_outside is None and pair not in pairs:
                    first_outside = StarryWord(source, pair)
        assert pg.degree3_witness(model) == first_triple
        if first_triple is not None:
            expected = (3, first_triple)
        elif first_outside is not None:
            expected = (2, first_outside)
        else:
            expected = (1, None)
        assert degree_model(model) == expected


# -- witnesses -------------------------------------------------------------------


def test_degree3_witness_na_square():
    na = load("na_square.pgd")
    w = pg.degree3_witness(na)
    assert w == StarryWord("1", ("dT'_13", "s1^", "s2"))
    f1, f2, f3 = w.legs
    assert _star(na, w.source, f1, f2)
    assert _star(na, w.source, f1, f3)
    assert _star(na, w.source, f2, f3)
    assert not _star(na, w.source, f1, f2, f3)


def test_degree3_witness_absent_on_groupoid_nerves():
    assert pg.degree3_witness(pg.nerve_truncation(pg.cyclic_group(3))) is None
    assert pg.degree3_witness(pg.nerve_truncation(pg.interval_groupoid())) is None


def test_degree3_witness_square_a_exists():
    # the circular gluing shares the long edge, so the cone argument does
    # not apply: (dT_02, l, s1) bounds on all three sides yet spans no
    # triangle, a genuine starry witness on an embeddable model
    a = load("a_square.pgd")
    w = pg.degree3_witness(a)
    assert w == StarryWord("0", ("dT_02", "l", "s1"))


# -- cones ------------------------------------------------------------------------


def test_has_cone_square():
    t, t2 = square_pair()
    assert pg.has_cone(t, t2)
    assert pg.degree_na(t, t2) == 3


def test_has_cone_pentagon_figure():
    t, t2 = pentagon_figure_pair()
    assert pg.has_cone(t, t2)
    assert pg.degree_na(t, t2) == 3


def test_has_cone_pentagon_fans():
    fan0 = pg.Triangulation.of(4, [(0, 1, 2), (0, 2, 3), (0, 3, 4)])
    fan4 = pg.Triangulation.of(4, [(0, 1, 4), (1, 2, 4), (2, 3, 4)])
    assert pg.has_cone(fan0, fan4)


def test_cone_requires_compatible():
    t, _ = square_pair()
    with pytest.raises(pg.DegreeError):
        pg.has_cone(t, t)


def test_cone_free_pair_has_degree_two():
    t = pg.Triangulation.of(5, [(0, 1, 2), (0, 2, 3), (0, 3, 5), (3, 4, 5)])
    t2 = pg.Triangulation.of(5, [(0, 1, 5), (1, 2, 4), (1, 4, 5), (2, 3, 4)])
    assert pg.pair_classify(t, t2) != pg.INCOMPATIBLE
    assert not pg.has_cone(t, t2)
    assert pg.degree_na(t, t2) == 2
    na = pg.build_glued(t, t2).model
    assert pg.degree3_witness(na) is None


def test_degree_symmetry():
    for n in (3, 4):
        tris = pg.enumerate_triangulations(n)
        for t in tris:
            for t2 in tris:
                if pg.pair_classify(t, t2) == pg.INCOMPATIBLE:
                    continue
                assert pg.degree_na(t, t2) == pg.degree_na(t2, t)


def test_witness_iff_cone_small():
    for n in (3, 4):
        tris = pg.enumerate_triangulations(n)
        for t in tris:
            for t2 in tris:
                if pg.pair_classify(t, t2) == pg.INCOMPATIBLE:
                    continue
                na = pg.build_glued(t, t2).model
                assert (pg.degree3_witness(na) is not None) == \
                    pg.has_cone(t, t2)


def test_cone_counts_regression():
    counts = {}
    for n in (3, 4, 5):
        tris = pg.enumerate_triangulations(n)
        compat = cones = 0
        for t in tris:
            for t2 in tris:
                if pg.pair_classify(t, t2) == pg.INCOMPATIBLE:
                    continue
                compat += 1
                cones += pg.has_cone(t, t2)
        counts[n] = (compat, cones)
    assert counts == {3: (2, 2), 4: (14, 14), 5: (108, 100)}


# -- closure laws -------------------------------------------------------------------


def test_starry_laws_exhaustive_na_square():
    na = load("na_square.pgd")
    for source in na.objects:
        legs = list(na.out_edges(source))
        for triple in itertools.product(legs, repeat=3):
            member = _star(na, source, *triple)
            faces = [triple[:i] + triple[i + 1:] for i in range(3)]
            if member:
                for face in faces:
                    assert _star(na, source, *face)
            # duplicate-leg law
            for i, j in ((0, 1), (0, 2), (1, 2)):
                if triple[i] == triple[j]:
                    rest = tuple(x for k, x in enumerate(triple) if k != i)
                    assert member == _star(na, source, *rest)
            # identity-leg law
            for i in range(3):
                if na.is_identity(triple[i]):
                    rest = tuple(x for k, x in enumerate(triple) if k != i)
                    assert member == _star(na, source, *rest)
                    break


def test_stored_triangles_are_members():
    for name in ("na_square.pgd", "na_pentagon.pgd"):
        model = load(name)
        for f, g, h in model.triangles:
            assert _star(model, model.edge(f).src, f, h)


def test_length4_scan_no_new_witnesses_on_cone_free_na():
    t = pg.Triangulation.of(5, [(0, 1, 2), (0, 2, 3), (0, 3, 5), (3, 4, 5)])
    t2 = pg.Triangulation.of(5, [(0, 1, 5), (1, 2, 4), (1, 4, 5), (2, 3, 4)])
    na = pg.build_glued(t, t2).model
    for source in na.objects:
        legs = [e for e in na.out_edges(source) if not na.is_identity(e)]
        for quad in itertools.permutations(legs, 4):
            faces = [quad[:i] + quad[i + 1:] for i in (1, 2, 3)]
            if all(_star(na, source, *f) for f in faces):
                assert _star(na, source, *quad)


# -- whole-model degree ----------------------------------------------------------------


def test_degree_model_values():
    assert degree_model(pg.nerve_truncation(pg.cyclic_group(3)))[0] == 1
    assert degree_model(pg.nerve_truncation(pg.interval_groupoid()))[0] == 1
    assert degree_model(load("na_square.pgd"))[0] == 3
    t = pg.Triangulation.of(5, [(0, 1, 2), (0, 2, 3), (0, 3, 5), (3, 4, 5)])
    t2 = pg.Triangulation.of(5, [(0, 1, 5), (1, 2, 4), (1, 4, 5), (2, 3, 4)])
    assert degree_model(pg.build_glued(t, t2).model)[0] == 2
