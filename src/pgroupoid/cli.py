"""Command-line front end.

Each result is printed as a single JSON line with a stable field order:
{"command": ..., "verdict": ..., "witness": ..., "counts": ..., "bound": ...}
with absent fields omitted.  Exit codes: 0 for pass/true verdicts, 2 for
malformed input, 3 for a witnessed failure (or an absent witness when one
was asked for); bounded verdicts always carry the bound in the report.
"""
from __future__ import annotations

import argparse
import functools
import json
import sys

from . import degree as _degree
from . import formats, monoid, polygon, words
from .model import SpininessError, symmetrize

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_FAIL = 3


class UsageError(ValueError):
    """The command line does not parse."""


class _Parser(argparse.ArgumentParser):
    """Raises instead of printing usage and exiting, so ``main`` reports it."""

    def error(self, message):
        raise UsageError(message)


def report(command, verdict, **extra):
    record = {"command": command, "verdict": verdict}
    for key in ("witness", "values", "counts", "bound", "detail", "output"):
        if key in extra and extra[key] is not None:
            record[key] = extra[key]
    print(json.dumps(record))


# -- subcommand handlers --------------------------------------------------------


def cmd_validate(args):
    model = formats.load_pgd(args.file, check=False)
    rep = model.validate()
    if rep.ok:
        report("validate", "pass", counts=model.counts())
        return EXIT_OK
    report("validate", "fail",
           witness=[str(v) for v in rep.violations],
           counts=model.counts())
    return EXIT_FAIL


def cmd_embeddable(args):
    model = formats.load_pgd(args.file)
    scan = words.mean_scan(model, args.max_len)
    if scan.is_kind:
        report("embeddable", "kind-up-to-bound", bound=scan.bound)
        return EXIT_OK
    report("embeddable", "mean-witness",
           witness=formats.format_word(scan.witness),
           values=list(scan.witness_values),
           bound=scan.bound)
    return EXIT_FAIL


def cmd_mountain(args):
    model = formats.load_pgd(args.file)
    word = words.mountain(model, args.f, args.g, args.max_len)
    if word is None:
        report("mountain", "absent", bound=args.max_len)
        return EXIT_FAIL
    report("mountain", "found",
           witness=formats.format_word(word),
           values=sorted(words.values(model, word)),
           bound=args.max_len)
    return EXIT_OK


def cmd_tau(args):
    pres = words.tau_presentation(formats.load_pgd(args.file))
    print("generators: " + " ".join(pres.generators))
    for rel in pres.relations:
        print("relation: " + " ".join(rel))
    return EXIT_OK


def cmd_reflect(args):
    result = words.reflect_bounded(formats.load_pgd(args.file), args.max_len)
    formats.save_pgd(result.model, args.output)
    report("reflect", "embeddable-up-to-bound",
           counts={"identified": len(result.identified),
                   "rounds": result.rounds},
           bound=result.bound,
           output=args.output)
    return EXIT_OK


def cmd_reduce(args):
    reduced = monoid.reduce_model(formats.load_pgd(args.file))
    formats.save_pgd(reduced, args.output)
    report("reduce", "ok", counts=reduced.counts(), output=args.output)
    return EXIT_OK


def cmd_symmetrize(args):
    model = formats.load_pgd(args.file)
    try:
        result = symmetrize(model)
    except SpininessError as exc:
        report("symmetrize", "fail",
               witness=[str(v) for v in exc.report.violations])
        return EXIT_FAIL
    formats.save_pgd(result, args.output)
    report("symmetrize", "ok", counts=result.counts(), output=args.output)
    return EXIT_OK


def cmd_na(args):
    if not 2 <= args.n <= polygon.MAX_GLUED_N:
        raise polygon.TriangulationError(
            f"na supports 2 <= n <= {polygon.MAX_GLUED_N} only")
    tris = polygon.enumerate_triangulations(args.n)
    if not (0 <= args.i < len(tris) and 0 <= args.j < len(tris)):
        raise polygon.TriangulationError(
            f"triangulation indices must lie in 0..{len(tris) - 1}")
    glued = polygon.build_glued(tris[args.i], tris[args.j], variant=args.variant)
    formats.save_pgd(glued.model, args.output)
    report("na", "ok",
           counts=glued.model.counts(),
           detail={"variant": args.variant,
                   "long_edges": sorted({glued.long_t, glued.long_t2})},
           output=args.output)
    return EXIT_OK


def cmd_pairs(args):
    if args.n > polygon.MAX_GLUED_N:
        raise polygon.TriangulationError(
            f"pairs supports n <= {polygon.MAX_GLUED_N} only")
    tris = polygon.enumerate_triangulations(args.n)
    for i, t in enumerate(tris):
        for j, t2 in enumerate(tris):
            cls = polygon.pair_classify(t, t2)
            row = {
                "command": "pairs",
                "n": args.n,
                "t": i,
                "t_prime": j,
                "class": cls,
                "flip_adjacent": polygon.flip_adjacent(t, t2),
            }
            if cls != polygon.INCOMPATIBLE:
                degree = _degree.degree_na(t, t2)
                row.update(has_cone=degree == 3, degree=degree)
            print(json.dumps(row))
    return EXIT_OK


def cmd_orthogonal(args):
    result = polygon.orthogonality_check(formats.load_pgd(args.file), args.max_gon)
    if result.ok:
        report("orthogonal", "pass",
               counts={"pairs": result.pairs_checked,
                       "homs": result.homs_checked},
               bound=result.max_n)
        return EXIT_OK
    t, t2, hom = result.violator
    report("orthogonal", "violator",
           witness={"t": list(t.key()), "t_prime": list(t2.key()),
                    "edge_map": dict(hom.edge_map)},
           bound=result.max_n)
    return EXIT_FAIL


def cmd_degree(args):
    value, witness = _degree.degree_model(formats.load_pgd(args.file))
    detail = None
    if witness is not None:
        detail = {"source": witness.source, "legs": list(witness.legs)}
    report("degree", str(value), detail=detail)
    return EXIT_OK


def cmd_monoid(args):
    cat = formats.load_cat(args.catfile)
    x = monoid.NormalForm.of(cat, formats.parse_string_arg(args.mult[0]))
    y = monoid.NormalForm.of(cat, formats.parse_string_arg(args.mult[1]))
    report("monoid", "ok", witness=str(monoid.monoid_mult(cat, x, y)))
    return EXIT_OK


def cmd_pregroup(args):
    result = words.pregroup_axiom_check(formats.load_pgd(args.file))
    if result.ok:
        report("pregroup", "pass")
        return EXIT_OK
    a, b, c = result.counterexample
    report("pregroup", "counterexample",
           witness=[a, b, c],
           detail={"(ab)c": result.left, "a(bc)": result.right})
    return EXIT_FAIL


@functools.cache
def build_parser():
    """The CLI's parser, built on first use and shared by every later call."""
    parser = _Parser(
        prog="pgroupoid",
        description="bounded embeddability toolkit for finite partial groupoids")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check the model laws of a PGD file")
    p.add_argument("file")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("embeddable", help="scan for mean words up to a bound")
    p.add_argument("file")
    p.add_argument("--max-len", type=int, default=6)
    p.set_defaults(func=cmd_embeddable)

    p = sub.add_parser("mountain", help="find a word with both edges as values")
    p.add_argument("file")
    p.add_argument("f")
    p.add_argument("g")
    p.add_argument("--max-len", type=int, default=6)
    p.set_defaults(func=cmd_mountain)

    p = sub.add_parser("tau", help="present the fundamental groupoid")
    p.add_argument("file")
    p.set_defaults(func=cmd_tau)

    p = sub.add_parser("reflect", help="quotient to an embeddable-at-bound model")
    p.add_argument("file")
    p.add_argument("--max-len", type=int, default=6)
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=cmd_reflect)

    p = sub.add_parser("reduce", help="collapse all objects to one")
    p.add_argument("file")
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=cmd_reduce)

    p = sub.add_parser("symmetrize", help="freely add inverses to a simplicial model")
    p.add_argument("file")
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=cmd_symmetrize)

    p = sub.add_parser("na", help="glue triangulations i, j of the (n+1)-gon")
    p.add_argument("n", type=int)
    p.add_argument("i", type=int)
    p.add_argument("j", type=int)
    p.add_argument("--variant", choices=["na", "a"], default="na")
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=cmd_na)

    p = sub.add_parser("pairs", help="classify all triangulation pairs")
    p.add_argument("n", type=int)
    p.set_defaults(func=cmd_pairs)

    p = sub.add_parser("orthogonal", help="test all glued maps into a model")
    p.add_argument("file")
    p.add_argument("--max-gon", type=int, default=5)
    p.set_defaults(func=cmd_orthogonal)

    p = sub.add_parser("degree", help="degree of a 2-dimensional model")
    p.add_argument("file")
    p.set_defaults(func=cmd_degree)

    p = sub.add_parser("monoid", help="multiply reduced jagged strings")
    p.add_argument("catfile")
    p.add_argument("--mult", nargs=2, required=True, metavar=("W1", "W2"))
    p.set_defaults(func=cmd_monoid)

    p = sub.add_parser("pregroup", help="probe the pregroup associativity axiom")
    p.add_argument("file")
    p.set_defaults(func=cmd_pregroup)

    return parser


def main(argv=None) -> int:
    # argparse sets `command` once it has read a known subcommand
    args = argparse.Namespace(command=None)
    try:
        build_parser().parse_args(argv, args)
        return args.func(args)
    except (ValueError, OSError) as exc:
        # every library error class subclasses ValueError, and so do
        # UsageError and UnicodeDecodeError from a file that is not UTF-8
        report(args.command, "input-error", detail=str(exc))
        return EXIT_INPUT


def entry():  # console script
    sys.exit(main())


if __name__ == "__main__":
    entry()
