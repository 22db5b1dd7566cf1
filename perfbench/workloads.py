"""The three workloads: seeded inputs, the timed calls, and their checks.

Each workload is a list of `Op`s making one pass.  An op's `call` is the
only code that is timed; it looks the package function up at call time,
so the span wrappers of a traced run see it.  Its `check` compares the
outcome with the answer known from how the input was built, through
`oracle.py`, and never calls the function being timed.

Why each workload exists:

* scan-deep: exhaustive `mean_scan`s at bounds 6..9.  Almost all time is
  `ValueTable` layer growth and product lookups; loading is under 1%.
* ortho-gon: `orthogonality_check` at max_gon 4 and 5.  Time goes to
  `iter_homs` backtracking and `mult`; `ValueTable` never runs, so each of
  these two workloads bypasses the other's mechanism.
* toolkit-mix: in-process CLI calls over all 13 subcommands on fresh
  files, some reading what earlier calls wrote.  Time goes to parsing,
  validation, the product-table build, emitting and the CLI itself.

Sizes are fixed per stratum and every random choice comes from the seed.
Inputs of scan-deep are accepted by the generator's own count of the
valued words a scan builds (`gen.layer_sizes`), which keeps the cost of
one scan in a narrow band whatever the seed.
"""
from __future__ import annotations

import contextlib
import io
import json
import os
import random
from dataclasses import dataclass, field
from typing import Callable

import gen
import oracle


@dataclass
class Op:
    label: str
    call: Callable[[], object]
    check: Callable[[object], str | None]
    # CLI ops: result lines the contract allows (None: free text); 0 for library ops
    cli_lines: int | None = 0


@dataclass
class Workload:
    ops: list[Op]
    inputs: list[str] = field(default_factory=list)  # files loaded at set-up


def _write(workdir, name, text):
    path = os.path.join(workdir, name)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    return path


class Loader:
    """Parses every PGD input once, as set-up, and keeps the models."""

    def __init__(self, pg):
        self.pg = pg
        self.models = {}

    def model(self, path):
        if path not in self.models:
            with open(path, encoding="utf-8") as fh:
                m = self.pg.formats.parse_pgd(fh.read())
            if m.edges:
                m.products_from(sorted(m.edges)[0])
            self.models[path] = m
        return self.models[path]


# -- scan-deep -----------------------------------------------------------------

KIND_FAMILY = [(1, k) for k in range(4, 10)] * 4 + [(2, 2), (2, 3), (2, 4)] * 2
DEEP_WORDS = (4000, 8000)  # valued words up to the bound, per deep input
PLANTED = {3: 5, 4: 8, 5: 7}  # planted inputs per length of their mean witness


def _kind_sub_nerve(rng, lo, hi):
    """A kind sub-nerve and its bound: the deepest L in 6..9 whose valued
    words up to L number between ``lo`` and ``hi``."""
    while True:
        n_obj, k = rng.choice(KIND_FAMILY)
        m = gen.sub_nerve(rng, n_obj, k, rng.uniform(0.55, 0.8), rng.uniform(0.3, 0.5))
        sizes, mean = gen.layer_sizes(m, 9, hi)
        if mean:
            raise AssertionError("a sub-nerve of a groupoid has a mean word")
        fits = [L for L in range(6, len(sizes) + 1) if lo <= sum(sizes[:L]) <= hi]
        if fits:
            return m, fits[-1]


def _planted(rng, length):
    """A small kind sub-nerve beside an NA gluing (n = 4..6) whose first
    mean words have the given length, which fixes where the scan stops."""
    while True:
        na, _, _ = gen.random_na(rng, rng.randint(max(4, length), 6))
        sizes, mean = gen.layer_sizes(na, length, 10**6)
        if mean and len(sizes) == length:
            kind, _ = _kind_sub_nerve(rng, 0, 300)
            return gen.union(kind, na)


def scan_deep(rng, workdir, pg):
    tris3 = gen.triangulations(3)
    items = [("a_square", gen.gluing(3, tris3[0], tris3[1], circular=True), 9),
             ("horn_sym", gen.horn_symmetric(), 9),
             ("z5_nerve", gen.nerve(1, 5), 8)]
    for i in range(60):
        items.append((f"deep{i}", *_kind_sub_nerve(rng, *DEEP_WORDS)))
    for i in range(10):
        items.append((f"shallow{i}", *_kind_sub_nerve(rng, 0, 1000)))
    # Simplicial models have no inverse letters, so their tables can run
    # out of valued words and the scan stops early ("exhausted").
    for i in range(10):
        m, _ = _kind_sub_nerve(rng, *DEEP_WORDS)
        items.append((f"half{i}", gen.oriented_half(m), 9))
    for length, count in PLANTED.items():
        for i in range(count):
            items.append((f"planted{length}_{i}", _planted(rng, length), rng.randint(6, 9)))
    rng.shuffle(items)
    loader = Loader(pg)
    ops, inputs = [], []
    for name, m, bound in items:
        path = _write(workdir, f"{name}.pgd", m.pgd())
        inputs.append(path)
        mean = name.startswith("planted")
        ops.append(Op(f"mean_scan@{bound}:{name}", _scan_call(pg, loader, path, bound),
                      _scan_check(m, bound, mean)))
    return Workload(ops, inputs), loader


def _scan_call(pg, loader, path, bound):
    def call():
        r = pg.words.mean_scan(loader.model(path), bound)
        return None if r.witness is None else (r.witness, r.witness_values)
    return call


def _scan_check(m, bound, mean):
    def check(outcome):
        if not mean:
            return None if outcome is None else f"kind input got witness {outcome}"
        if outcome is None:
            return "planted mean word was not found"
        return oracle.check_mean_witness(m, outcome[0], outcome[1], bound)
    return check


# -- ortho-gon -----------------------------------------------------------------


def _sub_nerve_where(rng, n_obj, k, accept):
    """A random sub-nerve whose counts of nonidentity edges and of triangle
    orbits pass ``accept``."""
    while True:
        m = gen.sub_nerve(rng, n_obj, k, rng.uniform(0.5, 1.0), rng.uniform(0.3, 1.0))
        if accept(len(m.nonidentity()), oracle.triangle_orbits(m)):
            return m


def ortho_gon(rng, workdir, pg):
    tris3 = gen.triangulations(3)
    items = [
        ("free_one_generator", gen.free_one_generator(), 4, True),
        ("a_square", gen.gluing(3, tris3[0], tris3[1], circular=True), 4, True),
        ("na_square", gen.gluing(3, tris3[0], tris3[1]), 4, False),
    ]
    # The same target at both gons gives the growth per polygon side.
    for name, m in (("z2_nerve", gen.nerve(1, 2)), ("pair2_nerve", gen.nerve(2, 1))):
        items += [(name, m, 4, True), (name, m, 5, True)]
    # Each cost class (k, edges, triangle orbits) gets a fixed share, so the
    # mix is the same for every seed and the median verdict sits inside one
    # class, the Z2 nerve.  Z3 is triangle-free or not; Z4 keeps its
    # self-inverse edge or its other pair (its full nerve costs 10x).
    for k, edges, orbits, count in ((2, 1, 0, 18), (3, 2, 0, 6), (3, 2, 1, 6),
                                    (4, 1, 0, 6), (4, 2, 0, 6)):
        for i in range(count):
            m = _sub_nerve_where(rng, 1, k, lambda e, o: (e, o) == (edges, orbits))
            items.append((f"sub_z{k}_{len(items)}", m, 4, True))
    for i in range(6):
        m = _sub_nerve_where(rng, 2, 2, lambda e, o: e > 0 and o <= 1)
        items.append((f"sub_pair2z2_{i}", m, 4, True))
    # mean targets: every well-behaved pair of the square and the pentagon, in turn
    for n, count in ((3, 33), (4, 13)):
        pairs = gen.pairs_of(n, ("well_behaved",))
        rng.shuffle(pairs)
        tris = gen.triangulations(n)
        for i in range(count):
            a, b = pairs[i % len(pairs)]
            items.append((f"na{n}_{i}", gen.gluing(n, tris[a], tris[b]), 4, False))
    rng.shuffle(items)
    loader = Loader(pg)
    ops, inputs = [], []
    for name, m, gon, kind in items:
        path = _write(workdir, f"{name}.pgd", m.pgd())
        if path not in inputs:
            inputs.append(path)
        ops.append(Op(f"orthogonality@{gon}:{name}", _ortho_call(pg, loader, path, gon),
                      _ortho_check(m, gon, kind)))
    return Workload(ops, inputs), loader


def _ortho_call(pg, loader, path, gon):
    def call():
        r = pg.polygon.orthogonality_check(loader.model(path), gon)
        violator = None
        if r.violator is not None:
            t, t2, hom = r.violator
            violator = (t.key(), t2.key(), hom.edge_map)
        return r.ok, r.pairs_checked, r.homs_checked, violator
    return call


def _ortho_check(m, gon, kind):
    pairs = sum(len(gen.pairs_of(n, ("well_behaved",))) for n in range(3, gon + 1))

    def check(outcome):
        ok, pairs_checked, _, violator = outcome
        if kind:
            if not ok:
                return "kind target got a violator"
            if pairs_checked != pairs:
                return f"checked {pairs_checked} pairs, expected {pairs}"
            return None
        if ok:
            return "mean target passed orthogonality"
        return oracle.check_violator(m, *violator, gon)
    return check


# -- toolkit-mix -----------------------------------------------------------------


def _cli_call(pg, argv):
    def call():
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = pg.cli.main(argv)
        return (code, buf.getvalue())
    return call


def contract_fault(outcome, lines_expected=1):
    """Why an outcome breaks the CLI contract (one JSON line, exit 0/2/3).

    ``outcome`` is (exit code, stdout), or the runner's record of a raise.
    """
    if not isinstance(outcome, tuple):
        return repr(outcome)
    code, out = outcome
    if code not in (0, 2, 3):
        return f"exit {code}"
    if lines_expected is None:
        return None
    lines = out.splitlines()
    if len(lines) != lines_expected:
        return f"{len(lines)} output lines"
    try:
        if not all(isinstance(json.loads(line), dict) for line in lines):
            return "output line is not a JSON object"
    except ValueError:
        return "output line is not JSON"
    return None


def _expect(code, verdict, more=None):
    """Check exit code and verdict of a one-line result, then ``more(record)``."""

    def check(outcome):
        got_code, out = outcome
        record = json.loads(out)
        if (got_code, record.get("verdict")) != (code, verdict):
            return f"expected exit {code} {verdict}, got exit {got_code} {record.get('verdict')}"
        return more(record) if more else None
    return check


def _expect_counts(objects, edges, triangles):
    want = {"objects": objects, "edges": edges, "triangles": triangles}
    return lambda r: None if r.get("counts") == want else f"counts {r.get('counts')} != {want}"


def _counts_of(m):
    return len(m.objects), len(m.nonidentity()), len(m.spine)


def _small_kind(rng, max_len):
    while True:
        n_obj, k = rng.choice([(1, 3), (1, 4), (1, 5), (1, 6), (2, 2)])
        m = gen.sub_nerve(rng, n_obj, k, rng.uniform(0.6, 0.9), rng.uniform(0.3, 0.6), tag="q")
        if len(gen.layer_sizes(m, max_len, 600)[0]) == max_len and len(m.edges) > n_obj:
            return m


def toolkit_mix(rng, workdir, pg):
    ops, inputs = [], []

    def add(label, argv, check, lines=1):
        def full_check(outcome, check=check, lines=lines):
            if contract_fault(outcome, lines):
                return None  # counted as a contract break, not a wrong verdict
            return check(outcome)
        ops.append(Op(f"cli:{label}", _cli_call(pg, argv), full_check, lines))

    def path(name):
        return os.path.join(workdir, name)

    def pgd_input(name, m_text):
        p = _write(workdir, name, m_text)
        inputs.append(p)
        return p

    # NA gluings written by `na`, then read by embeddable / degree / orthogonal;
    # the pentagon ones also by mountain and reflect.  The pentagon share is
    # the largest so that the slowest tenth of the calls starts inside it.
    for i in range(12):
        n = (3, 4, 4, 5)[i % 4]
        m, ti, tj = gen.random_na(rng, n)
        tris = gen.triangulations(n)
        out = path(f"na{i}.pgd")
        add("na", ["na", str(n), str(ti), str(tj), "-o", out],
            _expect(0, "ok", lambda r, m=m: _expect_counts(*_counts_of(m))(r)
                    or (None if r["detail"]["long_edges"] == ["lT", "lT'"] else "long edges")))
        add("embeddable", ["embeddable", out, "--max-len", str(n)],
            _expect(3, "mean-witness", lambda r, m=m, n=n: oracle.check_mean_witness(
                m, r["witness"].split(","), r["values"], n)))
        degree = "3" if gen.has_cone(n, tris[ti], tris[tj]) else "2"
        add("degree", ["degree", out], _expect(0, degree))
        if oracle.mean_word_up_to(m, 3) is None:
            check = _expect(0, "pass", lambda r: None if r["counts"]["pairs"] == 2 else "pairs")
        else:
            check = _expect(3, "violator", lambda r, m=m: oracle.check_violator(
                m, r["witness"]["t"], r["witness"]["t_prime"], r["witness"]["edge_map"], 3))
        add("orthogonal", ["orthogonal", out, "--max-gon", "3"], check)
        if n == 4:
            add("mountain", ["mountain", out, "lT", "lT'", "--max-len", str(n)],
                _expect(0, "found", lambda r, m=m, n=n: oracle.check_mountain(
                    m, r["witness"].split(","), "lT", "lT'", n)))
            refl = path(f"reflected{i}.pgd")
            add("reflect", ["reflect", out, "--max-len", str(n), "-o", refl],
                _expect(0, "embeddable-up-to-bound",
                        lambda r: None if r["counts"]["rounds"] >= 1 else "no rounds"))
            add("embeddable", ["embeddable", refl, "--max-len", str(n)],
                _expect(0, "kind-up-to-bound"))
    # circular gluings of well-behaved pairs
    for i in range(4):
        n = (3, 4)[i % 2]
        m, ti, tj = gen.random_na(rng, n, ("well_behaved",))
        a = gen.gluing(n, gen.triangulations(n)[ti], gen.triangulations(n)[tj], circular=True)
        add("na", ["na", str(n), str(ti), str(tj), "--variant", "a", "-o", path(f"a{i}.pgd")],
            _expect(0, "ok", _expect_counts(*_counts_of(a))))
    # kind sub-nerves: embeddable, validate, tau, reduce, pregroup
    for i in range(20):
        max_len = (4, 5, 6)[i % 3]
        m = _small_kind(rng, max_len)
        p = pgd_input(f"kind{i}.pgd", m.pgd())
        add("embeddable", ["embeddable", p, "--max-len", str(max_len)],
            _expect(0, "kind-up-to-bound"))
        if i % 2 == 0:
            add("validate", ["validate", p], _expect(0, "pass", _expect_counts(*_counts_of(m))))
            gens = len(m.nonidentity()) - oracle.self_inverse_edges(m)
            gens = (gens // 2) + oracle.self_inverse_edges(m)
            rels = oracle.triangle_orbits(m) + oracle.self_inverse_edges(m)
            add("tau", ["tau", p], _tau_check(gens, rels), lines=None)
        else:
            add("pregroup", ["pregroup", p], _pregroup_check(m))
        if i % 4 == 1:
            red = path(f"reduced{i}.pgd")
            _, edges, triangles = _counts_of(m)
            add("reduce", ["reduce", p, "-o", red], _expect(0, "ok", _expect_counts(1, edges, triangles)))
            add("embeddable", ["embeddable", red, "--max-len", "4"], _expect(0, "kind-up-to-bound"))
        collision = _collision(m)
        if i % 5 == 2 and collision:
            q = _write(workdir, f"collide{i}.pgd", m.pgd() + collision)
            add("validate", ["validate", q], _expect(3, "fail"))
    # simplicial halves: symmetrize, then mountain / pregroup on the output
    for i in range(6):
        half = gen.oriented_half(_small_kind(rng, 4))
        sym = gen.symmetrized(half)
        p = pgd_input(f"half{i}.pgd", half.pgd())
        out = path(f"sym{i}.pgd")
        add("symmetrize", ["symmetrize", p, "-o", out],
            _expect(0, "ok", _expect_counts(*_counts_of(sym))))
        loops = [e for e in sym.nonidentity() if sym.edges[e][0] == sym.edges[e][1]]
        if len(loops) >= 2 and sym.edges[loops[0]][0] == sym.edges[loops[1]][0]:
            add("mountain", ["mountain", out, loops[0], loops[1], "--max-len", "3"],
                _expect(3, "absent"))
        add("pregroup", ["pregroup", out], _pregroup_check(sym))
    # pair tables
    for n in (3, 4, 5):
        add("pairs", ["pairs", str(n)], _pairs_check(n), lines=None)
    # monoid products on groupoid categories
    cats = []
    for i, (n_obj, k) in enumerate([(1, 3), (1, 5), (2, 1), (2, 2), (3, 1)]):
        text, ends, compose = gen.groupoid_cat(n_obj, k)
        p = _write(workdir, f"cat{i}.cat", text)
        inputs.append(p)
        cats.append((p, ends, compose))
    for i in range(40):
        p, ends, compose = cats[i % len(cats)]
        names = sorted(ends)
        w1 = [rng.choice(names) for _ in range(rng.randint(0, 4))]
        w2 = [rng.choice(names) for _ in range(rng.randint(1, 4))]
        want = "(" + ",".join(oracle.normal_form(
            ends, compose, oracle.normal_form(ends, compose, w2)
            + oracle.normal_form(ends, compose, w1))) + ")"
        add("monoid", ["monoid", p, "--mult", "(" + ",".join(w1) + ")", "(" + ",".join(w2) + ")"],
            _expect(0, "ok", lambda r, want=want: None if r["witness"] == want else f"{r['witness']} != {want}"))
    # malformed input: the contracted answer is exit 2 with one JSON line.
    # `embeddable --max-len 1` is left out: it raises WordError (ROADMAP
    # item 5), and a benchmark run must have no failing operation.
    bad_header = _write(workdir, "bad_header.pgd", "pgd 2\nmode symmetric\nobject o\n")
    dangling = _write(workdir, "dangling.pgd", "pgd 1\nmode symmetric\nobject o\nedge f o z\n")
    na0 = path("na0.pgd")
    for argv in (["embeddable", bad_header], ["validate", dangling],
                 ["tau", dangling], ["degree", bad_header],
                 ["mountain", na0, "lT", "lT'", "--max-len", "1"],
                 ["reflect", na0, "--max-len", "1", "-o", path("never.pgd")]):
        add(argv[0] + ":malformed", argv, _expect(2, "input-error"))
    return Workload(ops, inputs), None


def _collision(m):
    """A triangle line (f, id, e) with e parallel to f: it collides with the
    degenerate product f, so validation must fail."""
    for f in m.nonidentity():
        for e in m.nonidentity():
            if e != f and m.edges[e][:2] == m.edges[f][:2]:
                return f"tri {f} {gen.ID}{m.edges[f][1]} {e}\n"
    return None


def _pregroup_check(m):
    triple = oracle.first_pregroup_fault(m)
    if triple is None:
        return _expect(0, "pass")
    return _expect(3, "counterexample",
                   lambda r: None if r["witness"] == triple else f"triple {r['witness']}")


def _tau_check(gens, rels):
    def check(outcome):
        code, out = outcome
        lines = out.splitlines()
        if code != 0 or not lines[0].startswith("generators:"):
            return f"tau exit {code}"
        got_gens = len(lines[0].split()) - 1
        got_rels = sum(1 for line in lines if line.startswith("relation:"))
        if (got_gens, got_rels) != (gens, rels):
            return f"tau gave {got_gens} generators / {got_rels} relations, expected {gens} / {rels}"
        return None
    return check


def _pairs_check(n):
    tris = gen.triangulations(n)

    def check(outcome):
        code, out = outcome
        rows = out.splitlines()
        if code != 0 or len(rows) != oracle.catalan(n - 1) ** 2:
            return f"pairs exit {code} with {len(rows)} rows"
        for line in rows:
            row = json.loads(line)
            t, t2 = tris[row["t"]], tris[row["t_prime"]]
            cls = gen.classify(n, t, t2)
            if row["class"] != cls:
                return f"pair {row['t']},{row['t_prime']} classed {row['class']}, expected {cls}"
            if cls != "incompatible" and row["degree"] != (3 if gen.has_cone(n, t, t2) else 2):
                return f"pair {row['t']},{row['t_prime']} has the wrong degree"
        return None
    return check


BY_NAME = {"scan-deep": scan_deep, "ortho-gon": ortho_gon, "toolkit-mix": toolkit_mix}


def build(name, seed, workdir, pg):
    return BY_NAME[name](random.Random(f"{name}:{seed}"), workdir, pg)
