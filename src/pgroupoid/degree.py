"""Starry words and degree computation for 2-dimensional models.

A starry word is a tuple of edges with a common source.  For a model whose
simplices above dimension 2 are all degenerate, membership of a starry
word in the (virtual) n-simplices is decidable: the word must be the
star of some simplex of dimension at most 2 pulled back along a function
of vertex sets.  The degree of the spine gluings is then read off from
the cone criterion on the triangulation pair.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import product

from .model import SYMMETRIC, TruncatedModel, identity_name
from .polygon import INCOMPATIBLE, Triangulation, pair_classify


class DegreeError(ValueError):
    pass


@dataclass(frozen=True)
class StarryWord:
    source: str
    legs: tuple[str, ...]


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


def _triangle_vertex_edges(model, tri):
    """Oriented edge lookup (p, q) -> edge between vertices p, q of a triangle."""
    f, g, h = tri
    ef, eg = model.edge(f), model.edge(g)
    verts = (ef.src, ef.tgt, eg.tgt)
    lookup = {}
    for p in range(3):
        lookup[(p, p)] = identity_name(verts[p])
    lookup[(0, 1)], lookup[(1, 0)] = f, model.inv(f)
    lookup[(1, 2)], lookup[(2, 1)] = g, model.inv(g)
    lookup[(0, 2)], lookup[(2, 0)] = h, model.inv(h)
    return verts, lookup


def starry_member(model: TruncatedModel, star: StarryWord) -> bool:
    """Whether the starry word is the star of a (possibly degenerate) simplex.

    Length 2 is a table lookup.  For length n >= 3 the word must factor as
    legs_i = edge_y(p, phi(i)) for a simplex y of dimension k <= 2, a vertex
    position p of y mapping to the source, and a function phi from the last
    n positions to the vertex positions of y.
    """
    _require_symmetric(model)
    _check_star(model, star.source, star.legs)
    legs = star.legs
    n = len(legs)
    if n == 2:
        return legs in _member_pairs(model)

    # dimension 0: all legs are the source identity
    ident = identity_name(star.source)
    if all(leg == ident for leg in legs):
        return True
    # dimension 1: legs take values in {id, e, inv e} consistently
    for name in model.nonidentity_edges():
        e = model.edge(name)
        for p, options in ((0, (identity_name(e.src), name)),
                           (1, (identity_name(e.tgt), model.inv(name)))):
            vert = (e.src, e.tgt)[p]
            if vert != star.source:
                continue
            if all(leg in options for leg in legs):
                return True
    # dimension 2: pull back a stored triangle
    for tri in sorted(model.triangles):
        verts, lookup = _triangle_vertex_edges(model, tri)
        for p in range(3):
            if verts[p] != star.source:
                continue
            for phi in product(range(3), repeat=n):
                if all(lookup[(p, phi[i])] == legs[i] for i in range(n)):
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
