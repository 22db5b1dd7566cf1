"""Reduction of models and the monoid of reduced jagged strings.

``reduce_model`` collapses all objects of a model to one, turning a
partial groupoid into a partial group while leaving the multiplication
table untouched.

For a finite category C, strings of morphisms rewrite by composing
adjacent composable entries and deleting identity entries.  The system
terminates (length drops) and is locally confluent, so normal forms are
unique; the normal forms (reduced jagged strings) form a monoid under
"concatenate, then normalize", with the left factor written second.
"""
from __future__ import annotations

from .category import FiniteCategory, CategoryError
from .model import Edge, ModelError, SYMMETRIC, TruncatedModel, identity_name
from .records import Record


class RewriteError(ValueError):
    pass


# -- model reduction -------------------------------------------------------------


def reduce_model(model: TruncatedModel) -> TruncatedModel:
    """Identify all objects; identities merge, everything else survives.

    Spininess is preserved because no nonidentity edges are merged.  The
    constructor closes the stored triangles again, which leaves them
    unchanged: edge names, inverses and identities all survive.
    """
    if not model.objects:
        raise ModelError("reduction needs a model with at least one object")
    base = model.objects[0]
    ident = identity_name(base)
    edges = [Edge(ident, base, base,
                  inv=ident if model.mode == SYMMETRIC else None,
                  is_identity=True)]
    for name in model.nonidentity_edges():
        e = model.edge(name)
        edges.append(Edge(name, base, base, inv=e.inv, is_identity=False))
    return TruncatedModel(model.mode, [base], edges, model.triangles)


# -- string rewriting -------------------------------------------------------------


def normalize(cat: FiniteCategory, entries) -> tuple[str, ...]:
    """The normal form, by one left-to-right pass.

    Each entry is composed into the reduced prefix when the two compose,
    and identities are dropped.  A composite keeps the source of the
    prefix's last entry, which does not compose with the entry before it,
    so one composition per entry suffices.  Normal forms are unique, so
    any other rewriting order gives the same result.
    """
    out: list[str] = []
    for name in entries:
        cat.morphism(name)
        if out and cat.composable(out[-1], name):
            name = cat.compose(name, out.pop())
        if not cat.is_identity(name):
            out.append(name)
    return tuple(out)


class NormalForm(Record, frozen=True):
    """A reduced jagged string: no identities, no composable neighbours."""

    __slots__ = ("entries",)

    def __init__(self, entries: tuple[str, ...]):
        self.entries = entries

    @classmethod
    def of(cls, cat: FiniteCategory, entries) -> "NormalForm":
        nf = cls(normalize(cat, entries))
        nf.check(cat)
        return nf

    def check(self, cat: FiniteCategory) -> None:
        for name in self.entries:
            if cat.is_identity(name):
                raise RewriteError(f"normal form contains identity {name}")
        for a, b in zip(self.entries, self.entries[1:]):
            if cat.composable(a, b):
                raise RewriteError(f"normal form has composable pair ({a},{b})")

    def __str__(self):
        return "(" + ",".join(self.entries) + ")"


def monoid_mult(cat: FiniteCategory, x: NormalForm, y: NormalForm) -> NormalForm:
    """x * y normalizes the concatenation with y written first."""
    return NormalForm.of(cat, y.entries + x.entries)


def monoid_unit() -> NormalForm:
    return NormalForm(())


def monoid_inverse(cat: FiniteCategory, x: NormalForm) -> NormalForm:
    """Entrywise inverse in reverse order; needs a groupoid."""
    if not cat.is_groupoid():
        raise CategoryError("inverses need a groupoid")
    return NormalForm(tuple(cat.inverse(m) for m in reversed(x.entries)))


# -- the embedding check -----------------------------------------------------------


class EmbedReport(Record):
    __slots__ = ("ok", "image", "failures")

    def __init__(self, ok: bool, image: tuple[NormalForm, ...],
                 failures: tuple[str, ...] = ()):
        self.ok = ok
        self.image = image
        self.failures = failures


def embed_check(cat: FiniteCategory) -> EmbedReport:
    """Check the canonical functor into the string monoid is a monoid map
    that separates the morphisms of the reduced category.

    (a) the normal form of (g after f) equals the product of the normal
    forms of g and f, for every composable pair; (b) distinct morphisms
    have distinct images, all of length at most 1, identities mapping to
    the empty string.
    """
    failures = []
    images = {}
    for name in sorted(cat.morphisms):
        images[name] = NormalForm.of(cat, (name,))
        want_len = 0 if cat.is_identity(name) else 1
        if len(images[name].entries) != want_len:
            failures.append(f"image of {name} has length "
                            f"{len(images[name].entries)}")
    nonidentity = [n for n in sorted(cat.morphisms) if not cat.is_identity(n)]
    for i, a in enumerate(nonidentity):
        for b in nonidentity[i + 1:]:
            if images[a] == images[b]:
                failures.append(f"images of {a} and {b} collide")
    for f in sorted(cat.morphisms):
        for g in sorted(cat.morphisms):
            if not cat.composable(f, g):
                continue
            composite = NormalForm.of(cat, (cat.compose(g, f),))
            stepwise = monoid_mult(cat, images[g], images[f])
            if composite != stepwise:
                failures.append(f"rs({g} after {f}) != ({g}) * ({f})")
    image = tuple(sorted(set(images.values()), key=lambda nf: nf.entries))
    return EmbedReport(not failures, image, tuple(failures))
