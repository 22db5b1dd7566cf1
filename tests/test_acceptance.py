"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines and
timings; every criterion also asserts its stated runtime budget.
"""
import itertools
import random
import time

import pgroupoid as pg
from pgroupoid import fixtures
from pgroupoid.degree import StarryWord, degree3_witness, degree_na, has_cone, starry_member
from pgroupoid.monoid import NormalForm
from pgroupoid.words import verify_zigzag

from helpers import (
    FullLayers,
    MODEL_FIXTURES,
    all_composable_words,
    applicable_moves,
    apply_move,
    brute_values,
    category_pool,
    groupoid_pool,
    load,
    random_string,
    rewrite,
    square_pair,
)


def _finish(num, label, t0, budget=None):
    elapsed = time.perf_counter() - t0
    limit = f" / budget {budget:.0f}s" if budget else ""
    print(f"ACCEPTANCE {num} ({label}): PASS ({elapsed:.2f}s{limit})")
    if budget is not None:
        assert elapsed < budget


def test_acceptance_01_example1_reproduction():
    t0 = time.perf_counter()
    m = load("example1.pgd")
    assert pg.values(m, ("a", "b", "c")) == {"f", "h"}
    assert pg.values(m, ("p", "q", "r")) == {"g", "h"}
    memo = {}
    longest = 0
    for word in all_composable_words(m, 13):
        longest = max(longest, len(word))
        assert not {"f", "g"} <= brute_values(m, word, memo)
    assert longest == 3  # the underlying graph is a DAG with max chain 3
    sym = pg.symmetrize(m)
    w = pg.mountain(sym, "f", "g", 7)
    assert w is not None and len(w) <= 7
    assert {"f", "g"} <= pg.values(sym, w)
    assert {"f", "g"} <= brute_values(sym, w)
    _finish(1, "example 1", t0, budget=1.0)


def test_acceptance_02_example2_reproduction():
    t0 = time.perf_counter()
    m = load("example2.pgd")
    ef, eg = m.edge("f"), m.edge("g")
    assert ef != eg and (ef.src, ef.tgt) == (eg.src, eg.tgt)
    memo = {}
    for word in all_composable_words(m, 13):
        assert len(brute_values(m, word, memo)) <= 1  # all words are kind
    zz = pg.find_zigzag(m, "f", "g", peak_cap=4)
    assert zz.entries == (("f",), ("a", "b", "c"), ("a", "p"),
                          ("a", "m", "c'"), ("q", "c'"),
                          ("a'", "b'", "c'"), ("g",))
    verify_zigzag(m, zz)
    # the four direct relations fail
    amc = pg.values(m, ("a", "m", "c'"))
    assert "f" not in amc and "g" not in amc
    assert "g" not in pg.values(m, ("a", "b", "c"))
    assert "f" not in pg.values(m, ("a'", "b'", "c'"))
    _finish(2, "example 2", t0, budget=1.0)


def test_acceptance_03_gluing_spininess_both_directions():
    t0 = time.perf_counter()
    pairs = 0
    for n in (3, 4, 5):
        tris = pg.enumerate_triangulations(n)
        for t in tris:
            for t2 in tris:
                pairs += 1
                cls = pg.pair_classify(t, t2)
                plain_ok = pg.build_raw_gluing(t, t2).validate().ok
                assert plain_ok == (cls != pg.INCOMPATIBLE)
                circ_ok = pg.build_raw_gluing(t, t2, circular=True).validate().ok
                assert circ_ok == (cls == pg.WELL_BEHAVED)
    assert pairs == 4 + 25 + 196
    _finish(3, "gluing spininess iff", t0, budget=10.0)


def test_acceptance_04_flip_graph_remark():
    t0 = time.perf_counter()
    for n in (4, 5):
        tris = pg.enumerate_triangulations(n)
        adjacent = 0
        for t in tris:
            for t2 in tris:
                if t == t2 or not pg.flip_adjacent(t, t2):
                    continue
                adjacent += 1
                assert pg.pair_classify(t, t2) != pg.WELL_BEHAVED
        assert adjacent > 0
    _finish(4, "flip-adjacent pairs never well-behaved", t0)


def test_acceptance_05_na_nonembeddable_and_orthogonality():
    t0 = time.perf_counter()
    for n in (3, 4, 5):
        tris = pg.enumerate_triangulations(n)
        for t in tris:
            for t2 in tris:
                if pg.pair_classify(t, t2) == pg.INCOMPATIBLE:
                    continue
                glued = pg.build_glued(t, t2)
                assert pg.values(glued.model, glued.spine) == {"lT", "lT'"}
                scan = pg.mean_scan(glued.model, n)
                assert not scan.is_kind
    na = load("na_square.pgd")
    res = pg.orthogonality_check(na, 3)
    assert not res.ok and res.violator[2].is_identity()
    assert pg.orthogonality_check(
        pg.nerve_truncation(pg.cyclic_group(3)), 4).ok
    assert pg.orthogonality_check(load("a_square.pgd"), 4).ok
    _finish(5, "NA non-embeddability and orthogonality", t0, budget=60.0)


def test_acceptance_06_degree_iff_cone():
    t0 = time.perf_counter()
    for n in (3, 4, 5):
        tris = pg.enumerate_triangulations(n)
        for t in tris:
            for t2 in tris:
                if pg.pair_classify(t, t2) == pg.INCOMPATIBLE:
                    continue
                na = pg.build_glued(t, t2).model
                assert (degree3_witness(na) is not None) == has_cone(t, t2)
    s, s2 = square_pair()
    assert degree_na(s, s2) == 3
    _finish(6, "degree three iff cone", t0, budget=120.0)


def test_acceptance_07_rewriting_confluence():
    t0 = time.perf_counter()
    rng = random.Random(20)
    pool = category_pool()
    assert len(pool) == 20
    for i in range(1000):
        cat = pool[i % len(pool)]
        s = random_string(rng, cat)
        assert pg.normalize(cat, s) == rewrite(cat, s, rng)
    joins = 0
    for i in range(200):
        cat = pool[i % len(pool)]
        w = random_string(rng, cat, max_len=6)
        moves = applicable_moves(cat, w)
        for m1, m2 in itertools.combinations(moves, 2):
            x, y = apply_move(cat, w, m1), apply_move(cat, w, m2)
            assert len(x) == len(w) - 1 and len(y) == len(w) - 1
            if x == y:
                continue
            nxt_x = {apply_move(cat, x, m) for m in applicable_moves(cat, x)}
            nxt_y = {apply_move(cat, y, m) for m in applicable_moves(cat, y)}
            assert nxt_x & nxt_y
            joins += 1
    assert joins > 200
    for i in range(1000):
        cat = pool[i % len(pool)]
        x = NormalForm.of(cat, random_string(rng, cat, max_len=5))
        y = NormalForm.of(cat, random_string(rng, cat, max_len=5))
        z = NormalForm.of(cat, random_string(rng, cat, max_len=5))
        assert pg.monoid_mult(cat, pg.monoid_mult(cat, x, y), z) == \
            pg.monoid_mult(cat, x, pg.monoid_mult(cat, y, z))
    _finish(7, "confluence, joins, associativity", t0, budget=30.0)


def test_acceptance_08_string_monoid_embedding():
    t0 = time.perf_counter()
    interval = fixtures.load_category("interval.cat")
    rep = pg.embed_check(interval)
    assert rep.ok
    assert [n.entries for n in rep.image] == [(), ("f",), ("f^",)]
    z3 = fixtures.load_category("z3.cat")
    rep = pg.embed_check(z3)
    assert rep.ok
    assert [n.entries for n in rep.image] == [(), ("x",), ("x2",)]
    rng = random.Random(21)
    pool = groupoid_pool()
    for i in range(500):
        cat = pool[i % len(pool)]
        x = NormalForm.of(cat, random_string(rng, cat, max_len=6))
        inv = pg.monoid_inverse(cat, x)
        assert pg.monoid_mult(cat, x, inv) == pg.monoid_unit()
        assert pg.monoid_mult(cat, inv, x) == pg.monoid_unit()
    _finish(8, "string monoid embedding", t0, budget=10.0)


def test_acceptance_09_reduction_coherence():
    t0 = time.perf_counter()
    for name in MODEL_FIXTURES:
        model = load(name)
        reduced = pg.reduce_model(model)
        scan = pg.mean_scan(model, 7)
        scan_r = pg.mean_scan(reduced, 7)
        assert scan.is_kind == scan_r.is_kind, name
        if not scan.is_kind:
            assert pg.is_mean(reduced, scan.witness)
            assert len(scan_r.witness) == len(scan.witness)
    _finish(9, "reduction verdict coherence at bound 7", t0, budget=60.0)


def test_acceptance_10_oracle_equivalence():
    t0 = time.perf_counter()
    for name in MODEL_FIXTURES:
        model = load(name)
        memo = {}
        for word in all_composable_words(model, 5):
            assert pg.values(model, word) == brute_values(model, word, memo)
    for n in (3, 4):
        tris = pg.enumerate_triangulations(n)
        for t in tris:
            for t2 in tris:
                if pg.pair_classify(t, t2) == pg.INCOMPATIBLE:
                    continue
                na = pg.build_glued(t, t2).model
                _starry_laws_exhaustive(na)
    _finish(10, "values DP and starry oracles", t0, budget=60.0)


def _starry_laws_exhaustive(model):
    for source in model.objects:
        legs = list(model.out_edges(source))
        for triple in itertools.product(legs, repeat=3):
            member = starry_member(model, StarryWord(source, triple))
            faces = [triple[:i] + triple[i + 1:] for i in range(3)]
            if member:
                for face in faces:
                    assert starry_member(model, StarryWord(source, face))
            for i, j in ((0, 1), (0, 2), (1, 2)):
                if triple[i] == triple[j]:
                    rest = tuple(x for k, x in enumerate(triple) if k != i)
                    assert member == starry_member(
                        model, StarryWord(source, rest))
            for i in range(3):
                if model.is_identity(triple[i]):
                    rest = tuple(x for k, x in enumerate(triple) if k != i)
                    assert member == starry_member(
                        model, StarryWord(source, rest))
                    break


def test_acceptance_11_free_partial_group():
    t0 = time.perf_counter()
    free = load("free_one_generator.pgd")
    pres = pg.tau_presentation(free)
    assert pres.generators == ("x",) and pres.relations == ()
    nerve = pg.nerve_truncation(pg.cyclic_group(3))
    homs = pg.enumerate_homs(free, nerve)
    injective = [
        h for h in homs
        if len(set(h.vertices.values())) == len(h.vertices)
        and len(set(h.edges.values())) == len(h.edges)
    ]
    assert injective
    assert all(pg.verify_hom(free, nerve, h) for h in injective)
    _finish(11, "free partial group embeds, fundamental group free", t0)


def test_acceptance_12_pregroup_axiom_example():
    t0 = time.perf_counter()
    horn = pg.symmetrize(load("horn.pgd"))
    rep = pg.pregroup_axiom_check(horn)
    assert not rep.ok
    assert rep.counterexample == ("u", "v", "w")
    assert (rep.left is None) != (rep.right is None)
    assert rep.right == "y"
    assert pg.mean_scan(horn, 6).is_kind
    _finish(12, "pregroup axiom fails yet embeddable at bound", t0, budget=5.0)


def test_acceptance_13_orthogonality_z3_nerve_at_hexagons():
    t0 = time.perf_counter()
    res = pg.orthogonality_check(pg.nerve_truncation(pg.cyclic_group(3)), 6)
    assert res.ok and res.violator is None
    assert res.pairs_checked == 806
    assert res.homs_checked == 540810
    _finish(13, "Z3 nerve orthogonal to every gluing up to the 7-gon", t0, budget=60.0)


def test_acceptance_14_a_square_kind_at_length_ten(monkeypatch):
    from pgroupoid.words import ValueTable, _parallel_classes, _scan

    sizes = {}
    build = ValueTable.layer

    def recording_layer(table, length):
        out = build(table, length)
        sizes[length] = len(out)
        return out

    a_square = load("a_square.pgd")
    t0 = time.perf_counter()
    with monkeypatch.context() as patch:
        patch.setattr(ValueTable, "layer", recording_layer)
        assert _scan(a_square, 10, _parallel_classes(a_square)).is_kind
    # no two edges of a_square (identities included) are parallel, so no
    # word can have two values and the scan over every parallel class joins
    # no word; mean_scan has no suspect class to scan at all
    ends = [(e.src, e.tgt) for e in map(a_square.edge, a_square.edges)]
    assert len(set(ends)) == len(ends)
    assert sizes == {L: 0 for L in range(2, 11)}
    assert pg.abelian_suspects(a_square) == ()
    assert pg.mean_scan(a_square, 10).is_kind
    full = FullLayers(a_square, 10)
    assert [len(full.layer(L)) for L in range(1, 11)] == [12 * 3 ** (L - 1)
                                                         for L in range(1, 11)]
    _finish(14, "a_square kind up to length 10, 12*3^(L-1) valued words per layer",
            t0, budget=10.0)
