"""Polygon triangulations and the universal non-embeddable gluings.

A triangulation of the (n+1)-gon on vertices 0..n is a set of n-1 vertex
triples.  Full binary parenthesizations of n symbols correspond to such
triangulations (leaf i spans the polygon side (i-1, i)); two of them glued
along the shared spine give a partial groupoid whose spine word has the
two long edges as its only values, the universal witness that the word
admits two different products.

Naming in glued models: spine edges s1..sn, diagonals dT_ij / dT'_ij per
triangulation copy, long edges lT / lT' (merged to a single edge l when
gluing along the circular spine).  Digits are concatenated in diagonal
names, so gluings are limited to n <= MAX_GLUED_N, far beyond desk scale here.
"""
from __future__ import annotations

from functools import lru_cache

from . import words as _words
from .model import (SYMMETRIC, Hom, ModelError, TruncatedModel, identity_name,
                    verify_hom)
from .model import iter_homs  # noqa: F401  perfbench's tracer reads polygon.iter_homs
from .records import Record

MAX_GLUED_N = 9  # one digit per vertex in glued diagonal names


class TriangulationError(ValueError):
    """Not a triangulation of the polygon."""


class GluingError(ValueError):
    """The requested gluing is not permitted for this pair."""


class Triangulation(Record, frozen=True):
    """n-1 triangles covering the (n+1)-gon with vertices 0..n."""

    __slots__ = ("n", "triples")

    def __init__(self, n: int, triples: frozenset[tuple[int, int, int]]):
        self.n = n
        self.triples = triples

    @classmethod
    def of(cls, n: int, triples) -> "Triangulation":
        t = cls(n, frozenset(tuple(sorted(tri)) for tri in triples))
        t.check()
        return t

    def check(self) -> None:
        if self.n < 2:
            raise TriangulationError("polygon needs n >= 2")
        if len(self.triples) != self.n - 1:
            raise TriangulationError(
                f"expected {self.n - 1} triangles, got {len(self.triples)}")
        edge_count: dict[tuple[int, int], int] = {}
        for tri in self.triples:
            if len(set(tri)) != 3 or not all(0 <= v <= self.n for v in tri):
                raise TriangulationError(f"bad triple {tri}")
            i, j, k = sorted(tri)
            for e in ((i, j), (j, k), (i, k)):
                edge_count[e] = edge_count.get(e, 0) + 1
        for e, cnt in edge_count.items():
            want = 1 if e in self.sides() else 2
            if cnt != want:
                raise TriangulationError(f"edge {e} appears {cnt} times")
        if set(self.sides()) - set(edge_count):
            raise TriangulationError("triangles do not cover the polygon")
        diags = sorted(self.diagonals())
        for a in range(len(diags)):
            for b in range(a + 1, len(diags)):
                if _crosses(diags[a], diags[b]):
                    raise TriangulationError(
                        f"diagonals {diags[a]} and {diags[b]} cross")

    def sides(self) -> tuple[tuple[int, int], ...]:
        return tuple((i, i + 1) for i in range(self.n)) + ((0, self.n),)

    def diagonals(self) -> frozenset[tuple[int, int]]:
        sides = set(self.sides())
        out = set()
        for tri in self.triples:
            i, j, k = sorted(tri)
            for e in ((i, j), (j, k), (i, k)):
                if e not in sides:
                    out.add(e)
        return frozenset(out)

    def key(self):
        return tuple(sorted(self.triples))

    def __lt__(self, other):
        return self.key() < other.key()

    def __repr__(self):
        return f"Triangulation({self.n}, {self.key()})"


def _crosses(d1, d2):
    i, j = d1
    k, l = d2
    return (i < k < j < l) or (k < i < l < j)


@lru_cache(maxsize=None)
def enumerate_triangulations(n: int) -> tuple[Triangulation, ...]:
    """All triangulations of the (n+1)-gon, in canonical order."""
    if n < 2:
        raise TriangulationError("polygon needs n >= 2")

    def rec(vs):
        if len(vs) < 3:
            return [frozenset()]
        out = []
        lo, hi = vs[0], vs[-1]
        for idx in range(1, len(vs) - 1):
            mid = vs[idx]
            for left in rec(vs[: idx + 1]):
                for right in rec(vs[idx:]):
                    out.append(left | right | {(lo, mid, hi)})
        return out

    tris = [Triangulation.of(n, t) for t in rec(tuple(range(n + 1)))]
    return tuple(sorted(tris))


# -- Tamari side: parenthesizations <-> triangulations --------------------------


def parse_parenthesization(text: str):
    """Parse "((1 2) 3)" into nested tuples with 1-based integer leaves."""
    tokens = text.replace("(", " ( ").replace(")", " ) ").split()
    pos = 0

    def parse():
        nonlocal pos
        if pos >= len(tokens):
            raise TriangulationError("unbalanced parenthesization")
        tok = tokens[pos]
        pos += 1
        if tok == "(":
            left = parse()
            right = parse()
            if pos >= len(tokens) or tokens[pos] != ")":
                raise TriangulationError("expected closing paren")
            pos += 1
            return (left, right)
        if tok == ")":
            raise TriangulationError("unexpected closing paren")
        if not tok.isdigit():
            raise TriangulationError(f"bad leaf {tok!r}")
        return int(tok)

    tree = parse()
    if pos != len(tokens):
        raise TriangulationError("trailing tokens in parenthesization")
    return tree


def _tree_leaves(tree):
    if isinstance(tree, int):
        return [tree]
    if not (isinstance(tree, tuple) and len(tree) == 2):
        raise TriangulationError(f"bad parenthesization node {tree!r}")
    return _tree_leaves(tree[0]) + _tree_leaves(tree[1])


def tamari_to_triangulation(tree) -> Triangulation:
    """Leaf i covers the side (i-1, i); a node spanning leaves i..j covers
    the chord (i-1, j), so each internal node contributes one triangle."""
    leaves = _tree_leaves(tree)
    n = len(leaves)
    if leaves != list(range(1, n + 1)):
        raise TriangulationError("leaves must read 1..n left to right")
    triples = []

    def span(node):
        if isinstance(node, int):
            return (node - 1, node)
        (a, _), (_, b) = span(node[0]), span(node[1])
        mid = span(node[0])[1]
        triples.append((a, mid, b))
        return (a, b)

    span(tree)
    return Triangulation.of(n, triples)


def triangulation_to_tamari(t: Triangulation):
    """Inverse of :func:`tamari_to_triangulation`."""
    by_chord = {}
    for tri in t.triples:
        i, j, k = sorted(tri)
        by_chord[(i, k)] = j

    def build(a, b):
        if b == a + 1:
            return b
        mid = by_chord[(a, b)]
        return (build(a, mid), build(mid, b))

    return build(0, t.n)


# -- pair classification ---------------------------------------------------------


INCOMPATIBLE = "incompatible"
COMPATIBLE = "compatible"
WELL_BEHAVED = "well_behaved"


def _wraps(n: int):
    """The two wrap-around triangles (n-1, n, 0) and (n, 0, 1), sorted: the
    ears at vertex n and at vertex 0."""
    return (0, n - 1, n), (0, 1, n)


def _shared_linear_ear(t: Triangulation, t2: Triangulation):
    shared = t.triples & t2.triples
    for i in range(1, t.n):
        ear = (i - 1, i, i + 1)
        if ear in shared:
            return ear
    return None


def pair_classify(t: Triangulation, t2: Triangulation) -> str:
    """incompatible / compatible / well_behaved, per the shared-ear tests.

    A shared straight ear (i-1, i, i+1) forces a spine collision in the
    plain gluing; the two wrap-around triangles do the same for the
    circular-spine gluing.
    """
    if t.n != t2.n:
        raise TriangulationError("pair classification needs equal n")
    if _shared_linear_ear(t, t2) is not None:
        return INCOMPATIBLE
    shared = t.triples & t2.triples
    if any(wrap in shared for wrap in _wraps(t.n)):
        return COMPATIBLE
    return WELL_BEHAVED


def flip_adjacent(t: Triangulation, t2: Triangulation) -> bool:
    if t.n != t2.n:
        raise TriangulationError("flip adjacency needs equal n")
    return len(t.diagonals() ^ t2.diagonals()) == 2


# -- glued models -----------------------------------------------------------------


class GluedModel(Record, frozen=True):
    __slots__ = ("model", "n", "variant", "t", "t2", "spine", "long_t", "long_t2")

    def __init__(self, model: TruncatedModel, n: int, variant: str,
                 t: Triangulation, t2: Triangulation, spine: tuple[str, ...],
                 long_t: str, long_t2: str):
        self.model = model
        self.n = n
        self.variant = variant
        self.t = t
        self.t2 = t2
        self.spine = spine
        self.long_t = long_t
        self.long_t2 = long_t2


def _edge_name(n, prefix, i, j, circular):
    """Name of the copy of edge (i, j) inside one triangulation's half."""
    if j == i + 1:
        return f"s{j}"
    if (i, j) == (0, n):
        return "l" if circular else "l" + prefix
    return f"d{prefix}_{i}{j}"


def build_raw_gluing(t: Triangulation, t2: Triangulation,
                     circular: bool = False) -> TruncatedModel:
    """Glue the two triangle complexes along the (circular) spine.

    No permission check and no validation: for a bad pair the result is
    exactly the non-spiny pushout, and ``validate()`` reports the spine
    collision.
    """
    if t.n != t2.n:
        raise TriangulationError("gluing needs equal n")
    n = t.n
    if n > MAX_GLUED_N:
        raise TriangulationError(
            f"glued edge names support n <= {MAX_GLUED_N} only")
    objects = [str(v) for v in range(n + 1)]
    edge_pairs = {}
    triangles = []
    for prefix, tri_set in (("T", t.triples), ("T'", t2.triples)):
        for tri in sorted(tri_set):
            i, j, k = sorted(tri)
            names = []
            for (p, q) in ((i, j), (j, k), (i, k)):
                name = _edge_name(n, prefix, p, q, circular)
                edge_pairs[name] = (name, str(p), str(q))
                names.append(name)
            triangles.append(tuple(names))
    ordered = [edge_pairs[k] for k in sorted(edge_pairs)]
    return TruncatedModel.symmetric(objects, ordered, triangles)


def build_glued(t: Triangulation, t2: Triangulation,
                variant: str = "na") -> GluedModel:
    """NA (spine gluing, compatible pairs) or A (circular, well-behaved)."""
    if variant not in ("na", "a"):
        raise GluingError(f"unknown variant {variant!r}")
    cls = pair_classify(t, t2)
    if variant == "na" and cls == INCOMPATIBLE:
        raise GluingError("NA gluing needs a compatible pair")
    if variant == "a" and cls != WELL_BEHAVED:
        raise GluingError("A gluing needs a well-behaved pair")
    glued = _glued_model(t, t2, variant)
    report = glued.model.validate()
    if not report.ok:
        raise GluingError(f"gluing is not spiny: {report.summary()}")
    return glued


def _glued_model(t: Triangulation, t2: Triangulation, variant: str) -> GluedModel:
    circular = variant == "a"
    n = t.n
    return GluedModel(
        model=build_raw_gluing(t, t2, circular=circular),
        n=n,
        variant=variant,
        t=t,
        t2=t2,
        spine=tuple(f"s{i}" for i in range(1, n + 1)),
        long_t="l" if circular else "lT",
        long_t2="l" if circular else "lT'",
    )


# -- peeling off shared wrap triangles ---------------------------------------------


class PeelResult(Record):
    __slots__ = ("t", "t2", "hom", "target", "steps")

    def __init__(self, t: Triangulation, t2: Triangulation, hom: Hom,
                 target: TruncatedModel, steps: int):
        self.t = t
        self.t2 = t2
        self.hom = hom
        self.target = target
        self.steps = steps


def _delete_wrap(t: Triangulation, shift: int) -> Triangulation:
    """Drop the ear at vertex n (shift 0) or at vertex 0 (shift 1) and
    renumber the remaining vertices from 0."""
    wrap = _wraps(t.n)[shift]
    kept = [tuple(v - shift for v in x) for x in t.triples if x != wrap]
    return Triangulation.of(t.n - 1, kept)


def peel_step(t: Triangulation, t2: Triangulation, hom: Hom,
              target: TruncatedModel):
    """One peel: drop the shared wrap triangle and restrict the map.

    Returns the smaller pair with the composite map NA(S,S') -> X.  A map
    out of NA(S,S') is its spine word, here the big spine word without
    the letter of the dropped vertex.  Identification of the long edges
    is preserved, which is exactly the two-sided cancellation law of the
    target.  ``hom`` must be a hom NA(T,T') -> ``target``.
    """
    if not verify_hom(build_glued(t, t2).model, target, hom):
        raise GluingError("map is not a hom NA(T, T') -> target")
    shared = t.triples & t2.triples
    for shift, wrap in enumerate(_wraps(t.n)):
        if wrap in shared:
            break
    else:
        raise GluingError("pair is already well-behaved, nothing to peel")
    small = build_glued(_delete_wrap(t, shift), _delete_wrap(t2, shift), variant="na")
    word = [hom.edge(f"s{k + shift}") for k in range(1, small.n + 1)]
    return small, _hom_from_evaluation(small, target, word)


def peel(t: Triangulation, t2: Triangulation, hom: Hom,
         target: TruncatedModel) -> PeelResult:
    """Iterate peel steps until the pair is well-behaved."""
    cls = pair_classify(t, t2)
    if cls == INCOMPATIBLE:
        raise GluingError("peel needs a compatible pair")
    if cls == WELL_BEHAVED:
        raise GluingError("pair is already well-behaved, nothing to peel")
    steps = 0
    while pair_classify(t, t2) != WELL_BEHAVED:
        glued, hom = peel_step(t, t2, hom, target)
        t, t2 = glued.t, glued.t2
        steps += 1
    return PeelResult(t, t2, hom, target, steps)


# -- the orthogonality harness -------------------------------------------------


def factor_through_circular(glued: GluedModel, hom: Hom) -> Hom:
    """Factor a long-edge-identifying map through the circular gluing.

    The spine gluing maps onto the circular one cell by cell, so the
    factorization is unique: it keeps every edge image and sends the
    merged long edge to the common image of the two long edges.
    """
    if glued.variant != "na":
        raise GluingError("factoring starts from a spine gluing")
    if hom.edge(glued.long_t) != hom.edge(glued.long_t2):
        raise GluingError("map does not identify the long edges")
    emap = {}
    for name, img in hom.edges.items():
        base = name[:-1] if name.endswith("^") else name
        suffix = "^" if name.endswith("^") else ""
        if base in (glued.long_t, glued.long_t2):
            emap["l" + suffix] = img
        else:
            emap[name] = img
    return Hom.of(hom.vertices, emap)


class OrthogonalityResult(Record):
    __slots__ = ("ok", "max_n", "violator", "pairs_checked", "homs_checked")

    def __init__(self, ok: bool, max_n: int,
                 violator: tuple[Triangulation, Triangulation, Hom] | None = None,
                 pairs_checked: int = 0, homs_checked: int = 0):
        self.ok = ok
        self.max_n = max_n
        self.violator = violator
        self.pairs_checked = pairs_checked
        self.homs_checked = homs_checked


def orthogonality_check(target: TruncatedModel, max_n: int) -> OrthogonalityResult:
    """Test every map from a glued NA model into the target.

    For every well-behaved pair with 3 <= n <= max_n and every hom
    NA -> target, the two long edges must land on the same edge
    (equivalently the map factors through the circular-spine gluing A).
    ``max_n`` must lie in 3..MAX_GLUED_N, or :class:`TriangulationError`
    is raised before any search.

    A hom out of NA(T, T') is its spine word: each diagonal is the product
    of the two shorter sides of its triangle, and vertices and inverses
    follow.  The orbit images of the glued triangles then hold because the
    target validates, which is a precondition (every loader and
    constructor of the package ensures it).  So each pair walks the
    composable words of length n, identity letters included, and counts
    every word on which both parenthesizations are defined as one hom.
    Pairs go by n, then in triangulation order; in the first pair with a
    long-edge-splitting word, the least such word by
    :func:`words.word_sort_key` becomes the violator, whose hom is built
    and re-checked with :func:`verify_hom`.

    Only the first pair of each swap/mirror class (:func:`_pair_classes`)
    is walked; the others reuse its count.  Swapping T and T' keeps the
    words and swaps the long edges.  Mirroring both triangulations
    (vertex v -> n - v) sends a word a1..an to an^-1..a1^-1: in a
    validated symmetric target, xy = z holds iff y^-1 x^-1 = z^-1, so
    every chord of the mirrored pair is defined on the reversed inverse
    word iff the chord it mirrors is defined on the word, with the
    inverse value.  Both maps are bijections on spine words that keep
    "the long edges differ", so a class shares its hom count, and a
    class with a splitting word is first violated at its first member.

    Reused per process, since none of it depends on the target: the class
    table, each walked pair's plan (:func:`_walk_plan`) and the NA gluing
    of the last few violating pairs (:func:`_na_gluing`).  Built once per
    call: the target's product rows, out-edges and edge ends.  Re-checked
    on every call: the violator's hom, by :func:`_splitting_hom`.
    """
    if not 3 <= max_n <= MAX_GLUED_N:
        raise TriangulationError(
            f"orthogonality needs 3 <= max_n <= {MAX_GLUED_N}, got {max_n}")
    if target.mode != SYMMETRIC:
        raise ModelError("orthogonality check needs a symmetric target")
    tables = _walk_tables(target)
    pairs = homs = 0
    for n in range(3, max_n + 1):
        counts = []  # hom count per class, classes numbered by first member
        for t, t2, cls in _pair_classes(n):
            pairs += 1
            if cls < len(counts):
                homs += counts[cls]
                continue
            count, splitting = _spine_words(tables, t, t2)
            counts.append(count)
            homs += count
            if splitting:
                word = min(splitting, key=_words.word_sort_key)
                hom = _splitting_hom(target, t, t2, word)
                return OrthogonalityResult(False, max_n, (t, t2, hom),
                                           pairs, homs)
    return OrthogonalityResult(True, max_n, None, pairs, homs)


@lru_cache(maxsize=None)
def _pair_classes(n: int) -> tuple[tuple[Triangulation, Triangulation, int], ...]:
    """The well-behaved pairs (T, T') of the (n+1)-gon in check order, each
    with the number of its class under swap and mirror (v -> n - v on both);
    classes are numbered in order of their first member."""
    tris = enumerate_triangulations(n)
    index = {t: i for i, t in enumerate(tris)}
    mirror = [index[Triangulation.of(n, [(n - k, n - j, n - i) for i, j, k in t.triples])]
              for t in tris]
    classes: dict[tuple[int, int], int] = {}
    out = []
    for i, t in enumerate(tris):
        for j, t2 in enumerate(tris):
            if pair_classify(t, t2) != WELL_BEHAVED:
                continue
            key = min((i, j), (j, i), (mirror[i], mirror[j]), (mirror[j], mirror[i]))
            out.append((t, t2, classes.setdefault(key, len(classes))))
    return tuple(out)


@lru_cache(maxsize=2048)
def _walk_plan(t: Triangulation, t2: Triangulation):
    """How :func:`_spine_words` walks the pair (T, T'), as slot numbers.

    Slots hold chord values, one table per triangulation with the sides
    shared.  Returns the slot count, the leaf slot of each letter, the two
    long-edge slots and, per letter k, the (chord, left, right) slots of
    every chord (i, k + 1) of both triangulations, shorter chords first.
    Only a class's first pair is walked; 2048 holds the 1,947 classes with
    n <= 7.
    """
    n = t.n
    size = (n + 1) * (n + 1)

    def slot(copy, i, k):
        return i * (n + 1) + k + (copy * size if k > i + 1 else 0)

    steps = [[] for _ in range(n + 1)]
    for copy, tri in enumerate((t, t2)):
        for i, j, k in sorted(tri.triples, reverse=True):
            steps[k].append((slot(copy, i, k), slot(copy, i, j), slot(copy, j, k)))
    leaves = tuple(slot(0, k, k + 1) for k in range(n))
    return (2 * size, leaves, slot(0, 0, n), slot(1, 0, n),
            tuple(tuple(chords) for chords in steps[1:]))


def _walk_tables(target):
    """What a spine walk reads off the target: each edge's product row,
    each object's out-edges and each edge's target."""
    return ({e: target.products_from(e) for e in target.edges},
            {o: target.out_edges(o) for o in target.objects},
            {name: e.tgt for name, e in target.edges.items()})


def _spine_words(tables, t, t2):
    """Count the spine words of homs NA(T, T') -> target; list the splitting ones.

    ``tables`` is :func:`_walk_tables` of the target.  Fixing letter k
    evaluates every chord (i, k) of both triangulations, shorter chords
    first, and prunes on an undefined product.
    """
    rows, out, tgt = tables
    slots, leaves, long1, long2, steps = _walk_plan(t, t2)
    n = len(leaves)
    val = [None] * slots
    count = 0
    splitting = []

    def extend(k, obj):
        nonlocal count
        leaf, chords = leaves[k], steps[k]
        for letter in out[obj]:
            val[leaf] = letter
            for dst, a, b in chords:
                h = rows[val[a]].get(val[b])
                if h is None:
                    break
                val[dst] = h
            else:
                if k + 1 < n:
                    extend(k + 1, tgt[letter])
                    continue
                count += 1
                if val[long1] != val[long2]:
                    splitting.append(tuple(val[s] for s in leaves))

    for obj in out:
        extend(0, obj)
    return count, splitting


def _splitting_hom(target, t, t2, word) -> Hom:
    """The hom NA(T, T') -> target of a splitting spine word, re-checked.

    Two paths check it: :func:`verify_hom` with the long-edge split, and
    the interval DP of :func:`words.values`, which must hold both long-edge
    images among the word's values.  Both run on every call; only the
    gluing NA(T, T') is reused, from :func:`_na_gluing`.
    """
    glued = _na_gluing(t, t2)
    hom = _hom_from_evaluation(glued, target, word)
    images = {hom.edge(glued.long_t), hom.edge(glued.long_t2)}
    if not verify_hom(glued.model, target, hom) or len(images) != 2:
        raise AssertionError(f"spine word {word} gives no long-edge-splitting hom")
    if not images <= _words.values(target, word):
        raise AssertionError(f"spine word {word} does not take the values {sorted(images)}")
    return hom


@lru_cache(maxsize=32)
def _na_gluing(t: Triangulation, t2: Triangulation) -> GluedModel:
    """The NA gluing of a violating pair, for :func:`_splitting_hom` only.

    A check stops at the first violated pair, which is always the first
    member of its class, so few pairs ever get here; 32 holds the 27
    classes with n <= 5.  The pair comes from
    :func:`_pair_classes`, so it is well-behaved and its gluing is spiny:
    :func:`build_glued`'s ``validate`` could not fail, and is not run.
    The gluing never leaves the module: :func:`_splitting_hom` returns a
    hom into the target, and :func:`build_glued` builds a fresh model.
    """
    return _glued_model(t, t2, "na")


def violator_from_mean_word(target: TruncatedModel, word) -> tuple[
        Triangulation, Triangulation, Hom]:
    """Turn a mean word into a glued pair and a long-edge-splitting map.

    Two parenthesizations with distinct values are shortened (any grouping
    of adjacent letters shared by both trees is contracted) until they share
    none, so the associated triangulations form a compatible pair; the word
    then defines a hom out of the NA gluing sending the long edges to the
    two values.
    """
    word = _words.check_word(target, word)
    while True:
        trees = list(_words.value_trees(target, word).values())
        if len(trees) < 2:
            raise GluingError("word is not mean")
        t, t2 = tamari_to_triangulation(trees[0]), tamari_to_triangulation(trees[1])
        ear = _shared_linear_ear(t, t2)
        if ear is None:
            break
        # the ear (i-1, i, i+1) groups leaves i and i+1 in both trees
        word = _words.contract(target, word, ear[1])
        if word is None:
            raise AssertionError("shared grouping did not contract")
    if len(word) < 3:
        raise GluingError("mean words have length at least 3")
    glued = build_glued(t, t2, variant="na")
    hom = _hom_from_evaluation(glued, target, word)
    return t, t2, hom


def _chord_values(target, word, t: Triangulation):
    """Map chord (i, k) -> evaluated edge: sides read the word, and each
    triangle (i, j, k), shorter spans first, multiplies its two short sides."""
    out = {(i - 1, i): letter for i, letter in enumerate(word, 1)}
    for i, j, k in sorted(t.triples, key=lambda tri: tri[2] - tri[0]):
        h = target.mult(out[(i, j)], out[(j, k)])
        if h is None:
            raise AssertionError(f"chord ({i}, {k}) does not evaluate")
        out[(i, k)] = h
    return out


def _hom_from_evaluation(glued: GluedModel, target: TruncatedModel, word) -> Hom:
    n = glued.n
    vmap = {"0": target.edge(word[0]).src}
    for i in range(1, n + 1):
        vmap[str(i)] = target.edge(word[i - 1]).tgt
    emap = {}
    for prefix, t in (("T", glued.t), ("T'", glued.t2)):
        for (i, j), value in _chord_values(target, word, t).items():
            emap[_edge_name(n, prefix, i, j, False)] = value
    for name in glued.model.edges:
        e = glued.model.edge(name)
        if e.is_identity:
            emap[name] = identity_name(vmap[e.src])
        elif name.endswith("^"):
            emap[name] = target.inv(emap[name[:-1]])
    return Hom.of(vmap, emap)
