"""Starry words and degree computation for 2-dimensional models.

A starry word is a tuple of edges with a common source.  For a model whose
simplices above dimension 2 are all degenerate, membership of a starry
word in the (virtual) n-simplices is decidable: the word must be the
star of some simplex of dimension at most 2 pulled back along a function
of vertex sets.  The degree of the spine gluings is then read off from
the cone criterion on the triangulation pair.
"""
from __future__ import annotations

from .model import SYMMETRIC, TruncatedModel, identity_name
from .polygon import INCOMPATIBLE, Triangulation, pair_classify
from .records import Record


class DegreeError(ValueError):
    pass


class StarryWord(Record, frozen=True):
    __slots__ = ("source", "legs")

    def __init__(self, source: str, legs: tuple[str, ...]):
        self.source = source
        self.legs = legs


def _require_symmetric(model):
    if model.mode != SYMMETRIC:
        raise DegreeError("degree operations need a symmetric model")


def _check_star(model, source, legs):
    if len(legs) < 2:
        raise DegreeError("starry words have length at least 2")
    for leg in legs:
        if model.edge(leg).src != source:
            raise DegreeError(f"leg {leg} does not start at {source}")


def _member_pairs(model):
    """The starry words of length 2 bounding a 2-simplex, as a set.

    A stored triangle with spine (f, g) and long edge h contributes
    (f, h); degenerate triangles contribute (id, e), (e, e), (e, id).
    """
    pairs = {(f, h) for f, g, h in model.triangles}
    for name, e in model.edges.items():
        ident = identity_name(e.src)
        pairs.update(((ident, name), (name, name), (name, ident)))
    return pairs


def starry_member(model: TruncatedModel, star: StarryWord) -> bool:
    """Whether the starry word is the star of a (possibly degenerate) simplex.

    The word must factor as legs_i = edge_y(p, phi(i)) for a simplex y of
    dimension k <= 2 (an object, an edge or a stored triangle), a vertex p
    of y at the source, and a function phi from the leg positions to the
    vertices of y.  As phi is any map, this holds exactly when every leg is
    an edge of y out of p, the identity included.  One nonidentity leg is
    always an edge out of the source; more need a triangle.
    """
    _require_symmetric(model)
    _check_star(model, star.source, star.legs)
    legs = set(star.legs) - {identity_name(star.source)}
    if len(legs) <= 1:
        return True
    inv = model.inv
    for f, g, h in model.triangles:
        for out in ((f, h), (inv(f), g), (inv(g), inv(h))):
            if model.edge(out[0]).src == star.source and legs <= set(out):
                return True
    return False


def degree3_witness(model: TruncatedModel) -> StarryWord | None:
    """A length-3 starry word whose three faces bound but which does not.

    The search runs over pairwise-distinct nonidentity legs; words with a
    repeated or identity leg reduce to shorter ones, so they can never be
    minimal witnesses.  Returns the first witness in lexicographic order,
    or None.
    """
    _require_symmetric(model)
    pairs = _member_pairs(model)
    for source in model.objects:
        legs = [e for e in model.out_edges(source)
                if not model.is_identity(e)]
        for f1 in legs:
            for f2 in legs:
                if f2 == f1 or (f1, f2) not in pairs:
                    continue
                for f3 in legs:
                    if f3 in (f1, f2):
                        continue
                    if (f1, f3) not in pairs or (f2, f3) not in pairs:
                        continue
                    star = StarryWord(source, (f1, f2, f3))
                    if not starry_member(model, star):
                        return star
    return None


def has_cone(t: Triangulation, t2: Triangulation) -> bool:
    """Two triangles of one half fanning out of an ear of the other.

    A cone is a pair (i-1, i, k), (i, i+1, k) in one triangulation with
    (i-1, i, i+1) in the other, for a straight index 1 <= i <= n-1.
    """
    if pair_classify(t, t2) == INCOMPATIBLE:
        raise DegreeError("cones are defined for compatible pairs")
    for a, b in ((t, t2), (t2, t)):
        for i in range(1, t.n):
            ear = tuple(sorted((i - 1, i, i + 1)))
            if ear not in b.triples:
                continue
            for k in range(t.n + 1):
                if k in (i - 1, i, i + 1):
                    continue
                t_one = tuple(sorted((i - 1, i, k)))
                t_two = tuple(sorted((i, i + 1, k)))
                if t_one in a.triples and t_two in a.triples:
                    return True
    return False


def degree_na(t: Triangulation, t2: Triangulation) -> int:
    """Degree of the spine gluing: 3 with a cone, else 2."""
    return 3 if has_cone(t, t2) else 2


def degree_model(model: TruncatedModel) -> tuple[int, StarryWord | None]:
    """Degree of a 2-dimensional model via capped starry scans.

    Degree 3 is witnessed by :func:`degree3_witness`; degree 1 means every
    pair of edges with a common source bounds a triangle (the groupoid
    case); degree 2 sits in between.  The length-3 cap is exact for the
    glued polygon family; see the cone criterion.
    """
    _require_symmetric(model)
    witness = degree3_witness(model)
    if witness is not None:
        return 3, witness
    pairs = _member_pairs(model)
    for source in model.objects:
        legs = [e for e in model.out_edges(source)
                if not model.is_identity(e)]
        for f1 in legs:
            for f2 in legs:
                if (f1, f2) not in pairs:
                    return 2, StarryWord(source, (f1, f2))
    return 1, None
