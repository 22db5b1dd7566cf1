"""Finite categories given by an explicit composition table.

Used as the source of nerves and as the owner of the reduced-jagged-string
monoid.  Identity morphisms are named ``1@<object>`` so that category files
and model files agree on identity tokens.
"""
from __future__ import annotations

from .model import IDENTITY_PREFIX
from .records import Record


class CategoryError(ValueError):
    """Structurally or semantically invalid category data."""


class Morphism(Record, frozen=True):
    __slots__ = ("name", "src", "tgt", "is_identity")

    def __init__(self, name: str, src: str, tgt: str, is_identity: bool = False):
        self.name = name
        self.src = src
        self.tgt = tgt
        self.is_identity = is_identity


class FiniteCategory:
    """Objects, morphisms, and a total composition table on composable pairs.

    ``compose_table`` maps ``(g, f) -> h`` with the meaning ``h = g after f``
    for nonidentity composable pairs; identity compositions are implied.
    The table is checked exhaustively for totality, identity laws, and
    associativity at construction time.
    """

    def __init__(self, objects, morphisms, compose_table):
        self.objects = tuple(sorted(objects))
        if len(set(self.objects)) != len(self.objects):
            raise CategoryError("duplicate object names")
        self.morphisms: dict[str, Morphism] = {}
        for o in self.objects:
            name = IDENTITY_PREFIX + o
            self.morphisms[name] = Morphism(name, o, o, is_identity=True)
        for m in morphisms:
            mor = Morphism(*m) if not isinstance(m, Morphism) else m
            if mor.name in self.morphisms:
                raise CategoryError(f"duplicate morphism name {mor.name}")
            if mor.src not in self.objects or mor.tgt not in self.objects:
                raise CategoryError(f"morphism {mor.name} has dangling endpoint")
            self.morphisms[mor.name] = mor
        self._table = {}
        for (g, f), h in dict(compose_table).items():
            for name in (g, f, h):
                if name not in self.morphisms:
                    raise CategoryError(f"composition references unknown {name}")
            if self.morphisms[f].tgt != self.morphisms[g].src:
                raise CategoryError(f"({g},{f}) is not composable")
            self._table[(g, f)] = h
        self._fill_identities()
        self._check_laws()
        self._inverses = self._compute_inverses()

    def _fill_identities(self):
        for m in self.morphisms.values():
            self._table[(m.name, IDENTITY_PREFIX + m.src)] = m.name
            self._table[(IDENTITY_PREFIX + m.tgt, m.name)] = m.name

    def _check_laws(self):
        names = sorted(self.morphisms)
        for f in names:
            for g in names:
                mf, mg = self.morphisms[f], self.morphisms[g]
                if mf.tgt != mg.src:
                    continue
                if (g, f) not in self._table:
                    raise CategoryError(f"missing composite for ({g},{f})")
                h = self.morphisms[self._table[(g, f)]]
                if h.src != mf.src or h.tgt != mg.tgt:
                    raise CategoryError(f"composite of ({g},{f}) has bad endpoints")
        for f in names:
            for g in names:
                if self.morphisms[f].tgt != self.morphisms[g].src:
                    continue
                gf = self._table[(g, f)]
                for k in names:
                    if self.morphisms[g].tgt != self.morphisms[k].src:
                        continue
                    kg = self._table[(k, g)]
                    if self._table[(k, gf)] != self._table[(kg, f)]:
                        raise CategoryError(
                            f"associativity fails on ({k},{g},{f})")

    def _compute_inverses(self):
        inverses = {}
        for f, mf in self.morphisms.items():
            for g, mg in self.morphisms.items():
                if mf.tgt != mg.src or mf.src != mg.tgt:
                    continue
                if (self._table[(g, f)] == IDENTITY_PREFIX + mf.src
                        and self._table[(f, g)] == IDENTITY_PREFIX + mg.src):
                    inverses[f] = g
                    break
        return inverses

    # -- queries -----------------------------------------------------------

    def morphism(self, name: str) -> Morphism:
        try:
            return self.morphisms[name]
        except KeyError:
            raise CategoryError(f"unknown morphism {name!r}") from None

    def nonidentity_morphisms(self) -> tuple[str, ...]:
        return tuple(sorted(n for n, m in self.morphisms.items()
                            if not m.is_identity))

    def identity(self, obj: str) -> str:
        if obj not in self.objects:
            raise CategoryError(f"unknown object {obj!r}")
        return IDENTITY_PREFIX + obj

    def is_identity(self, name: str) -> bool:
        return self.morphism(name).is_identity

    def composable(self, f: str, g: str) -> bool:
        """Diagrammatic order: f then g."""
        return self.morphism(f).tgt == self.morphism(g).src

    def compose(self, g: str, f: str) -> str:
        """The composite ``g after f``."""
        try:
            return self._table[(g, f)]
        except KeyError:
            raise CategoryError(f"({g},{f}) is not composable") from None

    def is_groupoid(self) -> bool:
        return all(n in self._inverses for n in self.morphisms)

    def inverse(self, name: str) -> str:
        if name not in self._inverses:
            raise CategoryError(f"morphism {name} has no inverse")
        return self._inverses[name]

    def __repr__(self):
        return (f"FiniteCategory({len(self.objects)} objects, "
                f"{len(self.morphisms)} morphisms)")


# -- stock examples used throughout the tests and fixtures ------------------


def cyclic_group(k: int, obj: str = "o", gen: str = "x") -> FiniteCategory:
    """The one-object groupoid with k morphisms; generators x, x2, ..."""
    if k < 1:
        raise CategoryError("order must be positive")
    names = {0: IDENTITY_PREFIX + obj}
    for i in range(1, k):
        names[i] = gen if i == 1 else f"{gen}{i}"
    morphisms = [(names[i], obj, obj) for i in range(1, k)]
    table = {}
    for i in range(k):
        for j in range(k):
            if i == 0 or j == 0:
                continue
            table[(names[j], names[i])] = names[(i + j) % k]
    return FiniteCategory([obj], morphisms, table)


def interval_groupoid(a: str = "a", b: str = "b",
                      f: str = "f", g: str = "f^") -> FiniteCategory:
    """Two objects with a single isomorphism pair between them."""
    table = {
        (g, f): IDENTITY_PREFIX + a,
        (f, g): IDENTITY_PREFIX + b,
    }
    return FiniteCategory([a, b], [(f, a, b), (g, b, a)], table)


def pair_groupoid(objects) -> FiniteCategory:
    """The indiscrete groupoid: one isomorphism (a, b) per ordered pair."""
    objects = sorted(objects)
    morphisms = []
    for a in objects:
        for b in objects:
            if a != b:
                morphisms.append((f"{a}_{b}", a, b))
    name = {(a, b): f"{a}_{b}" if a != b else IDENTITY_PREFIX + a
            for a in objects for b in objects}
    table = {}
    for a in objects:
        for b in objects:
            for c in objects:
                f, g = name[(a, b)], name[(b, c)]
                if a == b or b == c:
                    continue
                table[(g, f)] = name[(a, c)]
    return FiniteCategory(objects, morphisms, table)


def path_category(vertices, arcs) -> FiniteCategory:
    """The free category on a finite acyclic graph; morphisms are paths.

    ``arcs`` holds ``(name, src, tgt)``; path names join arc names with
    dots.  Raises if the graph has a directed cycle (the category would be
    infinite).
    """
    vertices = sorted(vertices)
    paths = {}
    for name, src, tgt in arcs:
        paths[name] = (src, tgt, (name,))
    frontier = dict(paths)
    while frontier:
        new = {}
        for pname, (src, tgt, comps) in sorted(frontier.items()):
            for aname, asrc, atgt in arcs:
                if atgt != src:
                    continue
                joined = ".".join((aname,) + comps)
                if joined in paths or joined in new:
                    continue
                if len(comps) > len(vertices):
                    raise CategoryError("graph has a directed cycle")
                new[joined] = (asrc, tgt, (aname,) + comps)
        paths.update(new)
        frontier = new
    morphisms = [(n, s, t) for n, (s, t, _) in sorted(paths.items())]
    by_comps = {comps: n for n, (_, _, comps) in paths.items()}
    table = {}
    for n1, (s1, t1, c1) in paths.items():
        for n2, (s2, t2, c2) in paths.items():
            if t1 != s2:
                continue
            table[(n2, n1)] = by_comps[c1 + c2]
    return FiniteCategory(vertices, morphisms, table)
