"""Spans around the package's public functions, installed from outside.

`Tracer.install` replaces module and class attributes with wrappers,
including names one module imported from another (``polygon.iter_homs``
is ``model.iter_homs``).  Per-product hot calls (`mult`, `products_from`,
`edge`) are never wrapped; their volume shows through result fields and
`ValueTable.layer` sizes instead.

A span is ``[name, start, end, parent, verdict, busy, info]``: `parent`
indexes the enclosing span (-1 at top level), `verdict` is the op index
the runner set, `busy` is the time spent inside the call (for the
`iter_homs` generator, the time inside its `next` calls) and `info` holds
the counts read off the call.  Spans stay in memory until the run ends.
"""
from __future__ import annotations

import math
import sys
import time

from collections import defaultdict

LENGTHS = range(2, 10)  # ValueTable layer lengths reported one by one


def _layer_info(args, result):
    table, length = args[0], args[1]
    return (length, len(result), table.exhausted_at(length))


def _ortho_info(args, result):
    return (id(args[0]), args[1], result.pairs_checked, result.homs_checked)


# (module, attribute path, span name, info reader)
TARGETS = [
    ("formats", "parse_pgd", "formats.parse_pgd", None),
    ("formats", "emit_pgd", "formats.emit_pgd", None),
    ("formats", "parse_cat", "formats.parse_cat", None),
    ("model", "TruncatedModel.validate", "model.validate", None),
    # the first products_from on a fresh model builds the whole table here
    ("model", "TruncatedModel._build_product_tables", "model.product_table", None),
    ("model", "iter_homs", "model.iter_homs", "generator"),
    ("words", "mean_scan", "words.mean_scan", None),
    ("words", "ValueTable.layer", "words.ValueTable.layer", _layer_info),
    ("words", "values", "words.values", None),
    ("words", "find_zigzag", "words.find_zigzag", None),
    ("words", "mountain", "words.mountain", None),
    ("words", "reflect_bounded", "words.reflect_bounded", lambda a, r: r.rounds),
    ("words", "pregroup_axiom_check", "words.pregroup_axiom_check", None),
    ("polygon", "orthogonality_check", "polygon.orthogonality_check", _ortho_info),
    ("polygon", "build_glued", "polygon.build_glued", None),
    ("polygon", "enumerate_triangulations", "polygon.enumerate_triangulations", None),
    ("degree", "degree_model", "degree.degree_model", None),
    ("degree", "degree_na", "degree.degree_na", None),
    ("monoid", "monoid_mult", "monoid.monoid_mult", None),
    ("monoid", "reduce_model", "monoid.reduce_model", None),
    ("cli", "main", "cli.main", None),
]


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.verdict = -1
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def _open(self, name):
        rec = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1,
               self.verdict, 0.0, None]
        self.spans.append(rec)
        return rec

    def _wrap(self, name, fn, info):
        def span(*args, **kwargs):
            rec = self._open(name)
            self._stack.append(len(self.spans) - 1)
            rec[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = time.perf_counter()
                rec[5] = rec[2] - rec[1]
                self._stack.pop()
            if info:
                rec[6] = info(args, result)
            return result
        return span

    def _wrap_generator(self, name, fn):
        def span(*args, **kwargs):
            rec = self._open(name)
            rec[6] = 0
            rec[1] = time.perf_counter()
            it = fn(*args, **kwargs)
            try:
                while True:
                    t0 = time.perf_counter()
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        rec[5] += time.perf_counter() - t0
                    rec[6] += 1
                    yield item
            finally:
                rec[2] = time.perf_counter()
        return span

    def install(self, pg):
        modules = [m for k, m in sorted(sys.modules.items())
                   if k == "pgroupoid" or k.startswith("pgroupoid.")]
        for mod_name, path, name, info in TARGETS:
            owner = getattr(pg, mod_name)
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            original = owner.__dict__.get(attr)
            if original is None:
                continue  # the package no longer has this layer
            if info == "generator":
                wrapper = self._wrap_generator(name, original)
            else:
                wrapper = self._wrap(name, original, info)
            holders = [owner] if outer else [m for m in modules
                                             if m.__dict__.get(attr) is original]
            for holder in holders:
                self._restore.append((holder, attr, original))
                setattr(holder, attr, wrapper)

    def uninstall(self):
        for holder, attr, original in reversed(self._restore):
            setattr(holder, attr, original)
        self._restore.clear()


def _geomean(ratios):
    return math.exp(sum(map(math.log, ratios)) / len(ratios)) if ratios else 0.0


def summarize(spans):
    """Per-layer busy seconds and counts of one list of spans.

    A call that raised has no info; it counts for time but not for counts.
    """
    busy, calls = defaultdict(float), defaultdict(int)
    child_busy = defaultdict(float)
    for rec in spans:
        busy[rec[0]] += rec[5]
        calls[rec[0]] += 1
        if rec[3] >= 0:
            child_busy[rec[3]] += rec[5]
    out = {}
    for _, _, name, _ in TARGETS:
        out[f"{name}.busy_s"] = busy[name]
    for name in ("formats.parse_pgd", "model.validate", "words.values", "polygon.build_glued"):
        out[f"{name}.calls"] = calls[name]
    out["cli.self_s"] = sum(rec[5] - child_busy[i] for i, rec in enumerate(spans)
                            if rec[0] == "cli.main")

    homs = sum(rec[6] for rec in spans if rec[0] == "model.iter_homs")
    out["model.iter_homs.homs"] = homs
    out["model.iter_homs.homs_per_s"] = homs / busy["model.iter_homs"] if homs else 0.0

    for length in LENGTHS:
        out[f"words.ValueTable.L{length}.valued_words"] = 0
        out[f"words.ValueTable.L{length}.busy_s"] = 0.0
    tables = defaultdict(list)  # enclosing scan span -> its layers
    for rec in spans:
        if rec[0] == "words.ValueTable.layer" and rec[6]:
            length, size, exhausted = rec[6]
            tables[rec[3]].append((length, size, rec[5], exhausted))
            out[f"words.ValueTable.L{length}.valued_words"] += size
            out[f"words.ValueTable.L{length}.busy_s"] += rec[5]
    layers = [sorted(v) for v in tables.values()]
    out["words.ValueTable.valued_words"] = sum(s for v in layers for _, s, _, _ in v)
    out["words.ValueTable.exhausted_scans"] = sum(any(e for *_, e in v) for v in layers)
    tops = [(v[-1], v[-2]) for v in layers if len(v) >= 2 and v[-1][1] and v[-2][1]]
    out["words.ValueTable.word_growth"] = _geomean([a[1] / b[1] for a, b in tops])
    out["words.ValueTable.time_growth"] = _geomean([a[2] / b[2] for a, b in tops])
    out["words.reflect_bounded.rounds"] = sum(
        rec[6] or 0 for rec in spans if rec[0] == "words.reflect_bounded")

    ortho = [rec for rec in spans if rec[0] == "polygon.orthogonality_check" and rec[6]]
    pairs = sum(rec[6][2] for rec in ortho)
    ortho_homs = sum(rec[6][3] for rec in ortho)
    out["polygon.orthogonality_check.pairs"] = pairs
    out["polygon.orthogonality_check.homs"] = ortho_homs
    out["polygon.orthogonality_check.homs_per_pair"] = ortho_homs / pairs if pairs else 0.0
    by_gon = defaultdict(dict)
    for rec in ortho:
        by_gon[rec[6][0]].setdefault(rec[6][1], []).append(rec[5])
    out["polygon.orthogonality_check.gon_growth"] = _geomean(
        [sum(g[5]) / sum(g[4]) for g in by_gon.values() if 4 in g and 5 in g])
    return out


# Counts that must repeat exactly between passes and runs of one seed.
EXACT = ("formats.parse_pgd.calls", "model.validate.calls", "words.values.calls",
         "polygon.build_glued.calls", "model.iter_homs.homs",
         "words.ValueTable.valued_words", "words.ValueTable.exhausted_scans",
         "words.reflect_bounded.rounds", "polygon.orthogonality_check.pairs",
         "polygon.orthogonality_check.homs") + tuple(
             f"words.ValueTable.L{n}.valued_words" for n in LENGTHS)
