"""Starry words and degree computation for 2-dimensional models.

A starry word is a tuple of edges with a common source.  For a model whose
simplices above dimension 2 are all degenerate, membership of a starry
word in the (virtual) n-simplices is decidable: the word must be the
star of some simplex of dimension at most 2 pulled back along a function
of vertex sets.  The degree of the spine gluings is then read off from
the cone criterion on the triangulation pair.
"""
from __future__ import annotations

from itertools import combinations

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

    These are the edges out of vertex 0 of each 2-simplex: the pairs
    (f, h) with h a product of f.  The degenerate products give (id, e),
    (e, e) and (e, id), from mult(id, e), mult(e, id) and mult(e, e~).
    """
    return {(f, h) for f in model.edges for h in model.products_from(f).values()}


def _nonidentity_legs(model, source):
    return [e for e in model.out_edges(source) if not model.is_identity(e)]


def starry_member(model: TruncatedModel, star: StarryWord) -> bool:
    """Whether the starry word is the star of a (possibly degenerate) simplex.

    The word must factor as legs_i = edge_y(p, phi(i)) for a simplex y of
    dimension k <= 2 (an object, an edge or a stored triangle), a vertex p
    of y at the source, and a function phi from the leg positions to the
    vertices of y.  As phi is any map, this holds exactly when every leg is
    an edge of y out of p, the identity included.  One nonidentity leg is
    always an edge out of the source; two are a member when they bound a
    2-simplex; three or more never are, as a 2-simplex has only two
    nonidentity edges out of any vertex.
    """
    _require_symmetric(model)
    _check_star(model, star.source, star.legs)
    legs = sorted(set(star.legs) - {identity_name(star.source)})
    if len(legs) == 2:
        return legs[1] in model.products_from(legs[0]).values()
    return len(legs) < 2


def degree3_witness(model: TruncatedModel) -> StarryWord | None:
    """A length-3 starry word whose three faces bound but which does not.

    The search runs over pairwise-distinct nonidentity legs; words with a
    repeated or identity leg reduce to shorter ones, so they can never be
    minimal witnesses.  No such word is a member (see
    :func:`starry_member`), so the witness is the first triple in
    lexicographic order whose three pairs bound, or None.
    """
    _require_symmetric(model)
    pairs = _member_pairs(model)
    for source in model.objects:
        for triple in combinations(_nonidentity_legs(model, source), 3):
            if all(pair in pairs for pair in combinations(triple, 2)):
                return StarryWord(source, triple)
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
        for pair in combinations(_nonidentity_legs(model, source), 2):
            if pair not in pairs:
                return 2, StarryWord(source, pair)
    return 1, None
