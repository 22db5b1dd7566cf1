"""Tests of the benchmark's own parts: generator, oracle, tracing, counts.

    PYTHONPATH=src python -m pytest -q perfbench/test_perfbench.py
"""
from __future__ import annotations

import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import gen  # noqa: E402
import oracle  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

pg = run.import_package()

DIGEST = """
import hashlib, os, sys, tempfile
sys.path[:0] = [{here!r}, {src!r}]
import workloads, pgroupoid
h = hashlib.sha256()
with tempfile.TemporaryDirectory() as d:
    workloads.build({name!r}, {seed}, d, pgroupoid)
    for f in sorted(os.listdir(d)):
        with open(os.path.join(d, f), 'rb') as fh:
            h.update(f.encode() + fh.read())
print(h.hexdigest())
"""


def _digest(name, seed, hash_seed):
    code = DIGEST.format(here=HERE, src=run.SRC, name=name, seed=seed)
    env = dict(os.environ, PYTHONHASHSEED=str(hash_seed))
    return subprocess.run([sys.executable, "-c", code], env=env, check=True,
                          capture_output=True, text=True).stdout.strip()


@pytest.mark.parametrize("name", ["ortho-gon", "toolkit-mix"])
def test_same_seed_gives_byte_identical_inputs(name):
    first = _digest(name, 5, 1)
    assert _digest(name, 5, 2) == first  # another string-hash order
    assert _digest(name, 6, 1) != first


def test_generated_models_match_the_package():
    tris = gen.triangulations(3)
    for mini in (gen.nerve(2, 3), gen.gluing(3, tris[0], tris[1]), gen.horn_symmetric()):
        model = pg.formats.parse_pgd(mini.pgd())
        assert len(model.triangles) == len(mini.spine)
        assert model.nonidentity_edges() == tuple(mini.nonidentity())
    for n in (3, 4, 5):
        assert [t.key() for t in pg.enumerate_triangulations(n)] == gen.triangulations(n)


def test_layer_sizes():
    # every word over the four nonidentity loops of Z5 is valued, none mean
    assert gen.layer_sizes(gen.nerve(1, 5), 4, 10**6) == ([4, 16, 64, 256], False)
    assert gen.layer_sizes(gen.nerve(1, 5), 4, 50) == ([4, 16], False)
    tris = gen.triangulations(3)
    sizes, mean = gen.layer_sizes(gen.gluing(3, tris[0], tris[1]), 9, 10**6)
    assert mean and len(sizes) == 3  # the scan stops at the spine word


def test_oracle_checks_mean_witnesses():
    tris = gen.triangulations(3)
    na = gen.gluing(3, tris[0], tris[1])
    spine = ("s1", "s2", "s3")
    assert oracle.check_mean_witness(na, spine, ["lT", "lT'"], 3) is None
    assert oracle.check_mean_witness(na, spine, ["lT"], 3)
    assert oracle.check_mean_witness(na, spine, ["lT", "lT'"], 2)
    assert len(oracle.tree_values(na, oracle.mean_word_up_to(na, 3))) == 2
    assert oracle.mean_word_up_to(gen.nerve(1, 4), 4) is None


def test_oracle_checks_violators():
    tris = gen.triangulations(3)
    t, t2 = tris[0], tris[1]
    na = gen.gluing(3, t, t2)
    identity = {e: e for e in na.edges}
    assert oracle.check_violator(na, t, t2, identity, 3) is None
    a = gen.gluing(3, t, t2, circular=True)
    folded = {e: e.replace("lT'", "l").replace("lT", "l") for e in na.edges}
    assert "identifies" in oracle.check_violator(a, t, t2, folded, 3)
    broken = dict(identity, s1="s2")
    assert oracle.check_violator(na, t, t2, broken, 3)


def test_oracle_normal_form_and_counts():
    _, ends, compose = gen.groupoid_cat(1, 5)
    assert oracle.normal_form(ends, compose, ["m00_2", "m00_3", "m00_1"]) == ["m00_1"]
    assert oracle.normal_form(ends, compose, ["m00_2", "m00_3"]) == []
    assert [oracle.catalan(n) for n in range(5)] == [1, 1, 2, 5, 14]
    assert [len(gen.pairs_of(n, ("well_behaved",))) for n in (3, 4)] == [2, 10]


def test_contract_fault():
    assert workloads.contract_fault((0, '{"verdict": "pass"}\n')) is None
    assert workloads.contract_fault((2, "")) == "0 output lines"
    assert workloads.contract_fault((1, '{"verdict": "x"}\n')) == "exit 1"
    assert workloads.contract_fault((0, "text\n")) == "output line is not JSON"
    assert workloads.contract_fault(run.Raised(ValueError())) == "raised ValueError"


def _traced_pass(wl, loader, keep):
    ops = [op for op in wl.ops if keep(op.label)]
    if loader:  # fresh models for every pass
        loader.models.clear()
        for path in wl.inputs:
            loader.model(path)
    runner = run.Runner(ops)
    tracer = spans.Tracer()
    tracer.install(pg)
    try:
        runner.run_pass(tracer=tracer)
    finally:
        tracer.uninstall()
    assert runner.wrong == 0 and runner.errors == 0
    counts = spans.summarize(tracer.spans)
    return [counts[k] for k in spans.EXACT], [repr(o) for o in runner.first], runner.errors


@pytest.mark.parametrize("name, keep", [
    ("scan-deep", lambda label: "shallow" in label or "planted3" in label),
    ("ortho-gon", lambda label: "na3" in label or label.endswith("z2_nerve")),
    ("toolkit-mix", lambda label: True),
])
def test_exact_counts_and_verdicts_repeat(name, keep, tmp_path):
    wl, loader = workloads.build(name, 3, str(tmp_path), pg)
    first = _traced_pass(wl, loader, keep)
    second = _traced_pass(wl, loader, keep)
    assert first[0] == second[0] and any(first[0])
    assert first[1:] == second[1:]


def test_tracer_restores_the_package():
    before = (pg.polygon.iter_homs, pg.words.mean_scan, pg.model.TruncatedModel.validate)
    tracer = spans.Tracer()
    tracer.install(pg)
    assert pg.polygon.iter_homs is pg.model.iter_homs is not before[0]
    tracer.uninstall()
    assert (pg.polygon.iter_homs, pg.words.mean_scan,
            pg.model.TruncatedModel.validate) == before
