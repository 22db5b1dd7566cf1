"""PGD and CAT file formats, plus the word syntax used on the command line.

PGD (partial groupoid data)::

    pgd 1
    mode symmetric            # or: simplicial
    object 0
    edge f 0 1                # non-identity edges; symmetric mode creates f^
    edge m 0 0 self           # a self-inverse loop
    tri f g h                 # spine (f, g), long edge h
    # comments run to end of line

Tokens are over [A-Za-z0-9_'].  The suffix ``^`` is reserved for inverses
and ``1@<object>`` for identity edges; both may appear in ``tri`` lines
and word arguments but not as declared names.  The loader orbit-closes
the triangle table in symmetric mode, so files may list one triangle per
orbit; the emitter writes canonical orbit representatives back out, and
the two are inverse on such canonical files.

CAT (finite category)::

    cat 1
    objects a b
    mor f a b
    comp g f h                # h = g after f

Identities are implicit and named ``1@<object>``; composites with an
identity factor need not be listed.

Words on the command line are comma-separated edge tokens: ``a,b,c``,
inverses with a trailing ``^``, identities as ``1@obj``.
"""
from __future__ import annotations

import re

from .category import FiniteCategory
from .model import SIMPLICIAL, SYMMETRIC, Edge, TruncatedModel, identity_name

TOKEN = re.compile(r"[A-Za-z0-9_']+\^?$|1@[A-Za-z0-9_']+$")
NAME = re.compile(r"[A-Za-z0-9_']+$")


class FormatError(ValueError):
    """Malformed PGD or CAT input."""


def _lines(text):
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield lineno, line.split()


def _check_name(token, lineno, kind="name"):
    if not NAME.match(token):
        raise FormatError(f"line {lineno}: bad {kind} {token!r}")
    return token


# -- PGD ----------------------------------------------------------------------


def parse_pgd(text: str, check: bool = True) -> TruncatedModel:
    """Parse PGD text; with ``check`` the loaded model must validate.

    Pass ``check=False`` to obtain a semantically broken model for
    inspection (the validate subcommand does this to report violations).
    """
    mode = None
    objects: list[str] = []
    edges: list[tuple[str, str, str]] = []
    self_inverse: list[str] = []
    triangles: list[tuple[str, str, str]] = []
    lines = list(_lines(text))
    if not lines or lines[0][1] != ["pgd", "1"]:
        raise FormatError("missing 'pgd 1' header")
    for lineno, parts in lines[1:]:
        kw, args = parts[0], parts[1:]
        if kw == "mode":
            if len(args) != 1 or args[0] not in (SYMMETRIC, SIMPLICIAL):
                raise FormatError(f"line {lineno}: bad mode")
            if mode is not None:
                raise FormatError(f"line {lineno}: duplicate mode")
            mode = args[0]
        elif kw == "object":
            if len(args) != 1:
                raise FormatError(f"line {lineno}: object takes one name")
            objects.append(_check_name(args[0], lineno, "object"))
        elif kw == "edge":
            if len(args) == 4 and args[3] == "self":
                name, src, tgt = args[:3]
                self_inverse.append(name)
            elif len(args) == 3:
                name, src, tgt = args
            else:
                raise FormatError(f"line {lineno}: edge takes name src tgt [self]")
            edges.append((_check_name(name, lineno, "edge"), src, tgt))
        elif kw == "tri":
            if len(args) != 3:
                raise FormatError(f"line {lineno}: tri takes three edges")
            for tok in args:
                if not TOKEN.match(tok):
                    raise FormatError(f"line {lineno}: bad token {tok!r}")
            triangles.append(tuple(args))
        else:
            raise FormatError(f"line {lineno}: unknown keyword {kw!r}")
    if mode is None:
        raise FormatError("missing mode line")
    try:
        if mode == SYMMETRIC:
            model = TruncatedModel.symmetric(objects, edges, triangles,
                                             self_inverse=self_inverse)
        else:
            if self_inverse:
                raise FormatError("'self' edges need symmetric mode")
            model = TruncatedModel.simplicial(objects, edges, triangles)
    except FormatError:
        raise
    except ValueError as exc:
        raise FormatError(str(exc)) from exc
    if check:
        report = model.validate()
        if not report.ok:
            raise FormatError(f"model does not validate: {report.summary()}")
    return model


def emit_pgd(model: TruncatedModel) -> str:
    """Canonical text: sorted declarations, one triangle per orbit.

    A symmetric pair is declared by its least edge f, whose partner is f
    itself or is written f^; a partner with another name (``x2`` beside
    ``x`` in the nerve of Z3) is renamed f^ before the triangle orbits
    are taken.  Raises :class:`FormatError` when another edge holds f^,
    and, as :func:`emit_cat` does, naming the first object or declared
    edge whose name :func:`parse_pgd` refuses, or an identity not named
    ``1@<object>``.
    """
    for o in model.objects:
        if not NAME.fullmatch(o):
            raise FormatError(f"object {o!r} has no PGD name")
    for e in model.edges.values():
        if e.is_identity and e.name != identity_name(e.src):
            raise FormatError(f"identity {e.name!r} is not named {identity_name(e.src)}")
    if model.mode == SYMMETRIC:
        model = _partners_renamed(model)
        names = [pair[0] for pair in model.edge_pairs()]
    else:
        names = model.nonidentity_edges()
    out = ["pgd 1", f"mode {model.mode}"]
    for o in model.objects:
        out.append(f"object {o}")
    for name in names:
        if not NAME.fullmatch(name):
            raise FormatError(f"edge {name!r} has no PGD name")
        e = model.edge(name)
        tag = " self" if e.inv == name else ""
        out.append(f"edge {name} {e.src} {e.tgt}{tag}")
    for tri in model.triangle_orbits():
        out.append("tri " + " ".join(tri))
    return "\n".join(out) + "\n"


def _partners_renamed(model):
    """The symmetric model with the partner of each pair (f, g) named f^,
    or the model itself when every partner already is."""
    rename = {}
    for pair in model.edge_pairs():
        if len(pair) == 2 and pair[1] != pair[0] + "^":
            if pair[0] + "^" in model.edges:
                raise FormatError(f"edge pair {pair} cannot be written: "
                                  f"{pair[0]}^ names another edge")
            rename[pair[1]] = pair[0] + "^"
    if not rename:
        return model
    edges = [Edge(rename.get(e.name, e.name), e.src, e.tgt,
                  inv=rename.get(e.inv, e.inv), is_identity=e.is_identity)
             for e in model.edges.values()]
    triangles = [tuple(rename.get(x, x) for x in t) for t in model.triangles]
    return TruncatedModel(SYMMETRIC, model.objects, edges, triangles)


def load_pgd(path, check: bool = True) -> TruncatedModel:
    with open(path, encoding="utf-8") as fh:
        return parse_pgd(fh.read(), check=check)


def save_pgd(model: TruncatedModel, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(emit_pgd(model))


# -- CAT ----------------------------------------------------------------------


def parse_cat(text: str) -> FiniteCategory:
    objects: list[str] = []
    morphisms: list[tuple[str, str, str]] = []
    table: dict[tuple[str, str], str] = {}
    lines = list(_lines(text))
    if not lines or lines[0][1] != ["cat", "1"]:
        raise FormatError("missing 'cat 1' header")
    for lineno, parts in lines[1:]:
        kw, args = parts[0], parts[1:]
        if kw == "objects":
            if not args:
                raise FormatError(f"line {lineno}: objects needs names")
            objects.extend(_check_name(a, lineno, "object") for a in args)
        elif kw == "mor":
            if len(args) != 3:
                raise FormatError(f"line {lineno}: mor takes name src tgt")
            for tok in args[1:]:
                _check_name(tok, lineno, "object")
            if not TOKEN.match(args[0]):
                raise FormatError(f"line {lineno}: bad morphism {args[0]!r}")
            morphisms.append(tuple(args))
        elif kw == "comp":
            if len(args) != 3:
                raise FormatError(f"line {lineno}: comp takes g f h")
            table[(args[0], args[1])] = args[2]
        else:
            raise FormatError(f"line {lineno}: unknown keyword {kw!r}")
    try:
        return FiniteCategory(objects, morphisms, table)
    except ValueError as exc:
        raise FormatError(str(exc)) from exc


def emit_cat(cat: FiniteCategory) -> str:
    """Text that :func:`parse_cat` reads back as an equal category.

    Raises :class:`FormatError` naming the first object or morphism whose
    name the format refuses, such as the dotted composites of
    ``path_category``.
    """
    for o in cat.objects:
        if not NAME.fullmatch(o):
            raise FormatError(f"object {o!r} has no CAT name")
    out = ["cat 1", "objects " + " ".join(cat.objects)]
    for name in cat.nonidentity_morphisms():
        if not TOKEN.fullmatch(name):
            raise FormatError(f"morphism {name!r} has no CAT name")
        m = cat.morphism(name)
        out.append(f"mor {name} {m.src} {m.tgt}")
    for f in cat.nonidentity_morphisms():
        for g in cat.nonidentity_morphisms():
            if cat.morphism(f).tgt == cat.morphism(g).src:
                out.append(f"comp {g} {f} {cat.compose(g, f)}")
    return "\n".join(out) + "\n"


def load_cat(path) -> FiniteCategory:
    with open(path, encoding="utf-8") as fh:
        return parse_cat(fh.read())


# -- word syntax -----------------------------------------------------------------


def parse_word(text: str) -> tuple[str, ...]:
    parts = [p.strip() for p in text.split(",")]
    if not all(parts):
        raise FormatError(f"bad word {text!r}")
    return tuple(parts)


def format_word(word) -> str:
    return ",".join(word)


def parse_string_arg(text: str) -> tuple[str, ...]:
    """Monoid strings: "(f,g)" with an optional outer parenthesis pair."""
    text = text.strip()
    if text.startswith("(") and text.endswith(")"):
        text = text[1:-1].strip()
    if not text:
        return ()
    return parse_word(text)
