"""pgroupoid benchmark.

    python3 perfbench/run.py --workload scan-deep --seed 1 --seconds 30 --trace 0

Run from the root of a checkout.  One client calls the package in a
closed loop (the next call starts when the previous one returns) on
inputs generated from ``--seed``.  A run makes whole passes over the
workload's ops until ``--seconds`` of wall time are spent (the last pass
may run past it).  Every verdict is checked against the answer known from how its
input was built.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` spends half
the time untraced and half with span wrappers installed, and prints the
per-layer metrics plus the tracing overhead.  ``--workload all`` runs
each workload in its own process and prints their lines.  The last line
of output is one JSON object; the exit code is 1 when a verdict was
wrong, 2 when the package cannot be found and 3 when a run passes
OVERTIME_S seconds (it prints no result then).
"""
from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")
WORKLOADS = ("scan-deep", "ortho-gon", "toolkit-mix")
SETUP_REPEATS = 15
OVERTIME_S = 165  # a run must end within 180 s; a slower one is aborted

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    _BENCH = json.load(_fh)
UNITS = {m["name"]: m["unit"] for m in _BENCH["end_to_end"] + _BENCH["per_layer"]}


class Overtime(BaseException):
    """Raised by the alarm; a BaseException so that no op handler swallows it."""


def _overtime(signum, frame):
    raise Overtime


class Raised:
    """Outcome of a call that raised."""

    def __init__(self, exc):
        self.name = type(exc).__name__

    def __eq__(self, other):
        return isinstance(other, Raised) and other.name == self.name

    def __repr__(self):
        return f"raised {self.name}"


def import_package():
    if not os.path.isfile(os.path.join(SRC, "pgroupoid", "__init__.py")):
        print(f"no package under {SRC}; run from the root of a checkout", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, SRC)
    import pgroupoid
    from pgroupoid import cli, degree, formats, model, monoid, polygon, words  # noqa: F401
    if os.path.dirname(os.path.dirname(os.path.abspath(pgroupoid.__file__))) != SRC:
        print(f"imported pgroupoid from {pgroupoid.__file__}, not from {SRC}", file=sys.stderr)
        sys.exit(2)
    return pgroupoid


def measure_setup(inputs, workdir):
    """Median seconds for a fresh interpreter to import and load every input."""
    listing = os.path.join(workdir, "inputs.txt")
    with open(listing, "w", encoding="utf-8") as fh:
        fh.write("\n".join(inputs))
    argv = [sys.executable, "-I", os.path.join(HERE, "setup_probe.py"), SRC, listing]
    times = []
    for i in range(SETUP_REPEATS + 1):
        done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True,
                              timeout=120, check=True)
        if i:  # the first run warms the file cache and compiles bytecode
            times.append(float(done.stdout.strip()))
    return statistics.median(times)


class Runner:
    """Runs passes over the ops and checks every outcome."""

    def __init__(self, ops):
        self.ops = ops
        self.first: list = []  # outcomes of the first pass
        self.checked: dict = {}  # (op index, outcome) -> reason or None
        self.durations: list[float] = []
        self.wrong = self.errors = 0
        self.problems: list[str] = []

    def run_pass(self, tracer=None):
        from workloads import contract_fault
        first = not self.first
        durations = []
        for i, op in enumerate(self.ops):
            if tracer:
                tracer.verdict = i
            t0 = time.perf_counter()
            try:
                outcome = op.call()
            except Exception as exc:  # counted as an error, the run goes on
                outcome = Raised(exc)
            durations.append(time.perf_counter() - t0)
            if first:
                self.first.append(outcome)
            self._judge(i, op, outcome, contract_fault)
        self.durations += durations
        return durations

    def _judge(self, i, op, outcome, contract_fault):
        if op.cli_lines != 0:
            fault = contract_fault(outcome, op.cli_lines)
        else:
            fault = repr(outcome) if isinstance(outcome, Raised) else None
        if fault:
            self.errors += 1
            self.note(f"error {op.label} #{i}: {fault}")
            return
        key = (i, repr(outcome))
        if key not in self.checked:
            try:
                self.checked[key] = op.check(outcome)
            except (ValueError, KeyError, IndexError, TypeError) as exc:
                self.checked[key] = f"unreadable outcome: {exc!r}"
            if outcome != self.first[i]:
                self.checked[key] = self.checked[key] or "outcome differs from the first pass"
        if self.checked[key]:
            self.wrong += 1
            self.note(f"wrong {op.label} #{i}: {self.checked[key]}")

    def note(self, text):
        if text not in self.problems:
            self.problems.append(text)

    def loop(self, seconds):
        """Whole passes until ``seconds`` have gone, so every op weighs the
        same in the metrics; returns the durations of each pass."""
        passes = []
        start = time.perf_counter()
        while not passes or time.perf_counter() - start < seconds:
            passes.append(self.run_pass())
        return passes


def quantile(values, q):
    """Nearest-rank quantile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def timed(runner, seconds):
    runner.loop(seconds)
    d = runner.durations
    return {"verdicts_per_s": len(d) / sum(d),
            "verdict_p50_ms": 1000 * quantile(d, 0.5),
            "verdict_p90_ms": 1000 * quantile(d, 0.9)}


def traced(runner, seconds, pg, loader, inputs, spans_path):
    import spans
    tracer = spans.Tracer()
    tracer.install(pg)
    try:
        if loader:  # the set-up loads, traced once
            for path in inputs:
                loader.model(path)
    finally:
        tracer.uninstall()
    setup_spans = tracer.spans
    untraced = runner.loop(seconds / 2)
    passes, all_spans = [], list(setup_spans)
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < seconds / 2:
        tracer.spans = []
        tracer.install(pg)
        try:
            runner.run_pass(tracer=tracer)
        finally:
            tracer.uninstall()
        passes.append(spans.summarize(tracer.spans))
        all_spans += tracer.spans
    with open(spans_path, "w", encoding="utf-8") as fh:
        for rec in all_spans:
            fh.write(json.dumps(rec) + "\n")
    for key in spans.EXACT:
        if any(p[key] != passes[0][key] for p in passes):
            runner.wrong += 1
            runner.note(f"count {key} differs between traced passes")
    base = spans.summarize(setup_spans)
    metrics = {}
    for key in passes[0]:
        if key in spans.EXACT:
            metrics[key] = base[key] + passes[0][key]
        elif UNITS[key] == "s":  # busy time: set-up once plus a mean pass
            metrics[key] = base[key] + statistics.fmean(p[key] for p in passes)
        else:
            metrics[key] = statistics.fmean(p[key] for p in passes)
    n_untraced = sum(len(p) for p in untraced)
    vps_untraced = n_untraced / sum(map(sum, untraced))
    traced_durations = runner.durations[n_untraced:]
    vps_traced = len(traced_durations) / sum(traced_durations)
    metrics["trace.untraced_verdicts_per_s"] = vps_untraced
    metrics["trace.verdicts_per_s"] = vps_traced
    metrics["trace.overhead_pct"] = 100 * (vps_untraced / vps_traced - 1)
    return metrics


def run_workload(args):
    pg = import_package()
    sys.path.insert(0, HERE)
    import workloads
    os.makedirs(WORK, exist_ok=True)
    workdir = os.path.join(WORK, f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(workdir)
    signal.signal(signal.SIGALRM, _overtime)
    signal.alarm(OVERTIME_S)
    try:
        workload, loader = workloads.build(args.workload, args.seed, workdir, pg)
        setup_s = measure_setup(workload.inputs, workdir)
        runner = Runner(workload.ops)
        if args.trace:
            spans_path = os.path.join(WORK, f"spans-{args.workload}-{args.seed}.jsonl")
            metrics = traced(runner, args.seconds, pg, loader, workload.inputs, spans_path)
        else:
            if loader:
                for path in workload.inputs:
                    loader.model(path)
            metrics = timed(runner, args.seconds)
            metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            metrics["setup_s"] = setup_s
    except Overtime:
        print(f"{args.workload}: run passed {OVERTIME_S} s and was aborted", file=sys.stderr)
        return 3
    finally:
        signal.alarm(0)
        shutil.rmtree(workdir, ignore_errors=True)
    attempted = len(runner.durations)
    for text in runner.problems:
        print(f"{args.workload} {text}", file=sys.stderr)
    extra = {"verdicts": (attempted, "count"), "ops_per_pass": (len(workload.ops), "count"),
             "wrong_verdicts": (runner.wrong, "count"),
             "error_ratio": (runner.errors / attempted, "ratio")}
    for key, value in sorted(metrics.items()):
        print(f"{args.workload} {key} {value:.6g} {UNITS[key]}")
    for key, (value, unit) in extra.items():
        print(f"{args.workload} {key} {value:.6g} {unit}")
    print(json.dumps({
        "correct": runner.wrong == 0,
        "attempted": attempted,
        "failed": runner.errors,
        "metrics": {k: {"value": v, "unit": UNITS[k]} for k, v in metrics.items()},
    }))
    return 0 if runner.wrong == 0 else 1


def run_all(args):
    code = 0
    for name in WORKLOADS:
        argv = [sys.executable, os.path.abspath(__file__), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace)]
        done = subprocess.run(argv, cwd=ROOT)
        code = code or done.returncode
    return code


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    return run_all(args) if args.workload == "all" else run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
