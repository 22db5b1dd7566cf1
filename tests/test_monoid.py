import random

import pytest

import pgroupoid as pg
from pgroupoid import fixtures
from pgroupoid.monoid import NormalForm

from helpers import (
    applicable_moves,
    apply_move,
    category_pool,
    example1_symmetric,
    groupoid_pool,
    load,
    random_string,
    rewrite,
)


# -- reduction of models ------------------------------------------------------


def test_reduce_example1_symmetric():
    ms = example1_symmetric()
    r = pg.reduce_model(ms)
    assert len(r.objects) == 1
    assert len(r.edge_pairs()) == 13
    assert len(r.triangle_orbits()) == 8
    assert r.triangles == ms.triangles
    assert r.validate().ok


def test_reduce_one_object_model_unchanged():
    nerve = pg.nerve_truncation(pg.cyclic_group(3))
    assert pg.reduce_model(nerve) == nerve


def test_reduce_na_square_keeps_mean_word():
    na = load("na_square.pgd")
    r = pg.reduce_model(na)
    assert len(r.objects) == 1
    assert len(r.edge_pairs()) == 7
    assert len(r.triangle_orbits()) == 4
    assert pg.values(r, ("s1", "s2", "s3")) == {"lT", "lT'"}
    assert pg.is_mean(r, ("s1", "s2", "s3"))


# -- normalization --------------------------------------------------------------


def test_normalize_basics():
    iv = fixtures.load_category("interval.cat")
    assert pg.normalize(iv, ()) == ()
    assert pg.normalize(iv, ("1@a",)) == ()
    assert pg.normalize(iv, ("f", "f^")) == ()
    assert pg.normalize(iv, ("f", "f")) == ("f", "f")
    assert pg.normalize(iv, ("f", "1@b", "f^")) == ()


def test_normal_form_constructor_checks():
    iv = fixtures.load_category("interval.cat")
    nf = NormalForm.of(iv, ("f", "f^", "f"))
    assert nf.entries == ("f",)
    with pytest.raises(pg.RewriteError):
        NormalForm(("1@a",)).check(iv)
    with pytest.raises(pg.RewriteError):
        NormalForm(("f", "f^")).check(iv)


def test_monoid_mult_examples():
    iv = fixtures.load_category("interval.cat")
    f = NormalForm(("f",))
    unit = pg.monoid_unit()
    assert pg.monoid_mult(iv, f, unit) == f
    assert pg.monoid_mult(iv, unit, f) == f
    assert pg.monoid_mult(iv, f, f) == NormalForm(("f", "f"))
    assert pg.monoid_mult(iv, f, NormalForm(("f^",))) == unit


def test_monoid_inverse_examples():
    iv = fixtures.load_category("interval.cat")
    assert pg.monoid_inverse(iv, pg.monoid_unit()) == pg.monoid_unit()
    assert pg.monoid_inverse(iv, NormalForm(("f",))) == NormalForm(("f^",))
    ff = NormalForm(("f", "f"))
    inv = pg.monoid_inverse(iv, ff)
    assert inv == NormalForm(("f^", "f^"))
    assert pg.monoid_mult(iv, ff, inv) == pg.monoid_unit()
    assert pg.monoid_mult(iv, inv, ff) == pg.monoid_unit()


def test_monoid_inverse_needs_groupoid():
    chain = pg.path_category(["0", "1"], [("u", "0", "1")])
    with pytest.raises(pg.CategoryError):
        pg.monoid_inverse(chain, NormalForm(("u",)))


def test_strategy_independence_random():
    rng = random.Random(0)
    pool = category_pool()
    for _ in range(300):
        cat = rng.choice(pool)
        s = random_string(rng, cat)
        assert pg.normalize(cat, s) == rewrite(cat, s, rng)


def test_local_confluence_one_step_joins():
    rng = random.Random(1)
    pool = category_pool()
    checked = 0
    for _ in range(300):
        cat = rng.choice(pool)
        w = random_string(rng, cat, max_len=6)
        moves = applicable_moves(cat, w)
        for m1 in moves:
            for m2 in moves:
                x = apply_move(cat, w, m1)
                y = apply_move(cat, w, m2)
                if x == y:
                    continue
                checked += 1
                nxt_x = {apply_move(cat, x, m) for m in applicable_moves(cat, x)}
                nxt_y = {apply_move(cat, y, m) for m in applicable_moves(cat, y)}
                assert nxt_x & nxt_y, (w, m1, m2)
    assert checked > 100


def test_termination_metric():
    rng = random.Random(2)
    for cat in category_pool():
        w = random_string(rng, cat, max_len=6)
        while True:
            moves = applicable_moves(cat, w)
            if not moves:
                break
            nxt = apply_move(cat, w, rng.choice(moves))
            assert len(nxt) < len(w)
            w = nxt


def test_associativity_random_triples():
    rng = random.Random(3)
    pool = category_pool()
    for _ in range(300):
        cat = rng.choice(pool)
        x = NormalForm.of(cat, random_string(rng, cat, max_len=5))
        y = NormalForm.of(cat, random_string(rng, cat, max_len=5))
        z = NormalForm.of(cat, random_string(rng, cat, max_len=5))
        left = pg.monoid_mult(cat, pg.monoid_mult(cat, x, y), z)
        right = pg.monoid_mult(cat, x, pg.monoid_mult(cat, y, z))
        assert left == right


def test_group_laws_on_groupoids():
    rng = random.Random(4)
    for cat in groupoid_pool():
        for _ in range(20):
            x = NormalForm.of(cat, random_string(rng, cat, max_len=5))
            inv = pg.monoid_inverse(cat, x)
            assert pg.monoid_mult(cat, x, inv) == pg.monoid_unit()
            assert pg.monoid_mult(cat, inv, x) == pg.monoid_unit()


# -- embedding check ---------------------------------------------------------------


def test_embed_check_interval():
    iv = fixtures.load_category("interval.cat")
    rep = pg.embed_check(iv)
    assert rep.ok
    assert [n.entries for n in rep.image] == [(), ("f",), ("f^",)]


def test_embed_check_z3():
    z3 = fixtures.load_category("z3.cat")
    rep = pg.embed_check(z3)
    assert rep.ok
    assert [n.entries for n in rep.image] == [(), ("x",), ("x2",)]
    assert pg.monoid_mult(z3, NormalForm(("x",)), NormalForm(("x",))) \
        == NormalForm(("x2",))


def test_embed_check_every_pool_category():
    for cat in category_pool():
        assert pg.embed_check(cat).ok


def test_invalid_category_rejected_before_check():
    with pytest.raises(pg.CategoryError):
        pg.FiniteCategory(
            ["o"],
            [("x", "o", "o"), ("y", "o", "o")],
            {("x", "x"): "y", ("x", "y"): "x", ("y", "x"): "y",
             ("y", "y"): "x"},
        )


# -- mean transfer -------------------------------------------------------------------


def test_mean_words_transfer_to_reduction():
    for name in ("na_square.pgd", "na_pentagon.pgd"):
        model = load(name)
        scan = pg.mean_scan(model, 5, collect_all=True)
        reduced = pg.reduce_model(model)
        assert not scan.is_kind
        assert pg.is_mean(reduced, scan.witness)
        assert pg.values(reduced, scan.witness) == \
            pg.values(model, scan.witness)


def test_verdict_coherence_at_bound():
    for name in ("example2.pgd", "horn.pgd", "na_square.pgd",
                 "a_square.pgd", "free_one_generator.pgd"):
        model = load(name)
        s1 = pg.mean_scan(model, 6)
        s2 = pg.mean_scan(pg.reduce_model(model), 6)
        assert s1.is_kind == s2.is_kind
        if not s1.is_kind:
            assert len(s1.witness) == len(s2.witness)
