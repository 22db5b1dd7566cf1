"""Independent oracles and generators shared by the test modules.

The oracles deliberately avoid the code paths they check: word values and
contractibility are recomputed by enumerating one-step contraction
sequences, products and spine faults are re-derived from the stored
triangles, triangle tables by closing every written triangle and testing
each image, bounded scans are read off layers all built in full,
triangulations by filtering non-crossing diagonal subsets,
starry membership by enumerating pullbacks of simplices, normal forms by
rewriting in random order, reflection merges by re-deriving degenerate
products on class names, peeled maps by renaming edges, and categories
come from a pool of hand-rolled constructions.
"""
from __future__ import annotations

import itertools
from collections import Counter
from operator import or_

import pgroupoid as pg
from pgroupoid import fixtures
from pgroupoid.category import FiniteCategory, IDENTITY_PREFIX
from pgroupoid.model import orbit_images
from pgroupoid.words import word_sort_key


# -- contraction-sequence oracle -------------------------------------------------


def brute_values(model, word, _memo=None):
    """Values by exhaustive one-step contraction sequences (no interval DP)."""
    if _memo is None:
        _memo = {}
    word = tuple(word)
    if word in _memo:
        return _memo[word]
    if len(word) == 1:
        out = frozenset(word)
    else:
        acc = set()
        for i in range(1, len(word)):
            h = model.mult(word[i - 1], word[i])
            if h is None:
                continue
            acc |= brute_values(model, word[: i - 1] + (h,) + word[i + 1 :], _memo)
        out = frozenset(acc)
    _memo[word] = out
    return out


def brute_contracts_to(model, word, target):
    """Whether word ~>* target, by depth-first search over one-step contractions."""
    word, target = tuple(word), tuple(target)
    if len(word) <= len(target):
        return False
    seen = set()
    stack = [word]
    while stack:
        w = stack.pop()
        if w in seen:
            continue
        seen.add(w)
        for nxt in pg.contractions(model, w):
            if nxt == target:
                return True
            if len(nxt) > len(target):
                stack.append(nxt)
    return False


def all_composable_words(model, max_len, include_identities=False):
    """Every composable word up to the length bound, valued or not."""
    if include_identities:
        starts = sorted(model.edges)
    else:
        starts = model.nonidentity_edges()

    def extend(word):
        yield word
        if len(word) == max_len:
            return
        tgt = model.edge(word[-1]).tgt
        for nxt in model.out_edges(tgt):
            if not include_identities and model.is_identity(nxt):
                continue
            yield from extend(word + (nxt,))

    for e in starts:
        yield from extend((e,))


# -- full-layer scan oracle -------------------------------------------------------


class FullLayers:
    """Every valued word of each length 1..max_len, each layer built whole.

    Layer L joins every split k: each word of length k and value v1
    followed by each word of length L - k and value v2 has value v1·v2.
    Letters and packing are those of ``ValueTable``: nonidentity edges,
    ``bits`` bits per letter index, first letter highest.  ``by_value[L]``
    maps each value to its packed words.  ``test_words`` checks the layers
    against contraction sequences.
    """

    def __init__(self, model, max_len):
        self.letters = model.nonidentity_edges()
        self.bits = max(1, (len(self.letters) - 1).bit_length())
        self.by_value = [{}, {e: {i} for i, e in enumerate(self.letters)}]
        for size in range(2, max_len + 1):
            acc = {}
            for k in range(1, size):
                right, shift = self.by_value[size - k], self.bits * (size - k)
                for v1, left in self.by_value[k].items():
                    left = [w << shift for w in left]
                    for v2, h in model.products_from(v1).items():
                        if v2 in right:
                            acc.setdefault(h, set()).update(
                                itertools.starmap(or_, itertools.product(left, right[v2])))
            self.by_value.append(acc)

    def layer(self, length):
        return set().union(*self.by_value[length].values())

    def decode(self, word, length):
        mask = (1 << self.bits) - 1
        return tuple(self.letters[(word >> self.bits * i) & mask]
                     for i in reversed(range(length)))

    def exhausted_at(self, length):
        """Whether some m <= length closes an empty dyadic window of layers
        ceil(m/2)..m, the rule by which a bounded scan stops early."""
        return any(not any(self.by_value[(m + 1) // 2:m + 1]) for m in range(2, length + 1))


class FullScan:
    """``mean_scan`` and ``mountain`` read off layers that are all built in full.

    ``FullLayers`` builds every layer 2..max_len whole, the last one too,
    and no exhaustion shortcut is taken.  The bounded scan, which builds
    only the value sets its reader can use, must give the same answers at
    every bound up to ``max_len``.
    """

    def __init__(self, model, max_len):
        self.table = table = FullLayers(model, max_len)
        self.layers = {}  # length -> (value index, packed mean words)
        for length in range(2, max_len + 1):
            index = table.by_value[length]
            seen = Counter(itertools.chain.from_iterable(index.values()))
            self.layers[length] = index, {w for w, n in seen.items() if n > 1}

    def _least(self, words, length):
        return min(((self.table.decode(w, length), w) for w in words),
                   key=lambda pair: word_sort_key(pair[0]))

    def mean_scan(self, bound, collect_all=False):
        """The tuple (witness, witness_values, sad_edges, mean_word_count)."""
        witness, witness_values, sad, count = None, (), set(), 0
        for length in range(2, bound + 1):
            index, mean = self.layers[length]
            if not mean:
                continue
            if witness is None:
                witness, packed = self._least(mean, length)
                witness_values = tuple(sorted(v for v, ws in index.items() if packed in ws))
            found = mean if collect_all else {packed}
            count += len(found)
            sad.update(v for v, ws in index.items() if not ws.isdisjoint(found))
            if not collect_all:
                break
        return witness, witness_values, tuple(sorted(sad)), count

    def mountain(self, f, g, bound):
        """The least word with values f and g (distinct), or None."""
        for length in range(2, bound + 1):
            index, _ = self.layers[length]
            both = index.get(f, set()) & index.get(g, set())
            if both:
                return self._least(both, length)[0]
        return None


# -- symmetric model laws oracle ---------------------------------------------------


def brute_symmetric_laws(model):
    """Whether a symmetric model is a partial groupoid, checked by brute force.

    The laws are: a valid involution, single-valued products over stored and
    degenerate triangles, a triangle table closed under the six vertex
    permutations, and two-sided cancellation over ``products_from``.
    ``validate`` checks only the first two; the constructor makes the third
    hold and the first three imply the fourth.
    """
    edges = model.edges
    for name, e in edges.items():
        partner = edges[e.inv]
        if partner.inv != name or (partner.src, partner.tgt) != (e.tgt, e.src):
            return False
        if e.is_identity and e.inv != name:
            return False

    def degenerate(f, g):
        ef, eg = edges[f], edges[g]
        if ef.is_identity:
            return g
        if eg.is_identity:
            return f
        if g == ef.inv:
            return IDENTITY_PREFIX + ef.src
        return None

    products = {}
    for f, g, h in model.triangles:
        products.setdefault((f, g), set()).add(h)
    for f in edges:
        for g in edges:
            h = degenerate(f, g) if edges[f].tgt == edges[g].src else None
            if h is not None:
                products.setdefault((f, g), set()).add(h)
    if any(len(hs) > 1 for hs in products.values()):
        return False
    for t in model.triangles:
        for f, g, h in orbit_images(t, lambda e: edges[e].inv):
            if (f, g, h) not in model.triangles and degenerate(f, g) != h:
                return False
    left, right = {}, {}
    for f in edges:
        for g, h in model.products_from(f).items():
            if left.setdefault((f, h), g) != g or right.setdefault((g, h), f) != f:
                return False
    return True


# -- triangle-closure oracles -------------------------------------------------------


def closed_orbits(mode, edges, written):
    """The triangle orbits a model built from ``written`` stores, as a set
    of frozensets of triangles.

    In a symmetric model whose involution is valid, each written triangle
    gives all six of its images; elsewhere it gives itself.  Each image is
    kept unless it is degenerate, tested on its own: id g = g, f id = f
    or, in symmetric mode, f f~ = id_src(f).
    """
    edges = {e.name: e for e in edges}
    closed = mode == "symmetric" and all(
        edges[e.inv].inv == name
        and (edges[e.inv].src, edges[e.inv].tgt) == (e.tgt, e.src)
        and (e.inv == name or not e.is_identity)
        and (e.inv != name or e.is_identity or e.src == e.tgt)
        for name, e in edges.items())

    def degenerate(f, g, h):
        ef, eg = edges[f], edges[g]
        return ((ef.is_identity and h == g) or (eg.is_identity and h == f)
                or (mode == "symmetric" and g == ef.inv and h == IDENTITY_PREFIX + ef.src))

    orbits = set()
    for t in written:
        images = orbit_images(tuple(t), lambda e: edges[e].inv) if closed else (tuple(t),)
        kept = frozenset(i for i in images if not degenerate(*i))
        if kept:
            orbits.add(kept)
    return orbits


def assert_closed_as_oracle(mode, objects, edges, written):
    """Build a model from ``written`` and check that it stores the orbits
    of :func:`closed_orbits` and keeps one image of each; return it."""
    edges = list(edges)
    model = pg.TruncatedModel(mode, objects, edges, written)
    orbits = closed_orbits(mode, edges, written)
    assert model.triangles == frozenset().union(*orbits)
    owners = [orbit for t in model._orbits for orbit in orbits if t in orbit]
    assert len(owners) == len(model._orbits) == len(orbits)
    assert set(owners) == orbits
    return model


def written_variants(model):
    """Triangle lists that build ``model`` again: its stored triangles, and
    one image of each orbit beside a degenerate triangle on every
    nonidentity edge (id f = f and, in symmetric mode where f~ runs back
    along f, f f~ = id)."""
    degenerate = []
    for e in model.edges.values():
        if not e.is_identity:
            degenerate.append((IDENTITY_PREFIX + e.src, e.name, e.name))
            partner = model.edges.get(e.inv)
            if partner is not None and (partner.src, partner.tgt) == (e.tgt, e.src):
                degenerate.append((e.name, e.inv, IDENTITY_PREFIX + e.src))
    return [sorted(model.triangles), list(model.triangle_orbits()) + degenerate]


def all_image_orbits(model):
    """``TruncatedModel.triangle_orbits`` as it was defined before the model
    kept its orbits: the least image, by ``word_sort_key``, of each stored
    triangle, sorted (the stored triangles themselves in simplicial mode)."""
    if model.mode != "symmetric":
        return tuple(sorted(model.triangles))
    return tuple(sorted({min(orbit_images(t, model.inv), key=word_sort_key)
                         for t in model.triangles}))


# -- product-table oracle -----------------------------------------------------------


def brute_products(model):
    """Every product ``(f, g) -> h``, re-derived from ``model.triangles``.

    A composable spine with stored triangles takes its least long edge,
    also where a degenerate rule or a second long edge disagrees (those
    are faults for ``validate``); any other composable spine takes its
    degenerate value, id g = g, f id = f or, in symmetric mode,
    f f~ = id_src(f).  Spines without a product are left out.
    """
    edges = model.edges
    stored = {}
    for f, g, h in model.triangles:
        stored.setdefault((f, g), []).append(h)
    products = {}
    for f, ef in edges.items():
        for g, eg in edges.items():
            if ef.tgt != eg.src:
                continue
            if (f, g) in stored:
                products[(f, g)] = min(stored[(f, g)])
            elif ef.is_identity:
                products[(f, g)] = g
            elif eg.is_identity:
                products[(f, g)] = f
            elif model.mode == "symmetric" and g == ef.inv:
                products[(f, g)] = IDENTITY_PREFIX + ef.src
    return products


def brute_spine_faults(model):
    """The stored triangles that break spininess, in sorted order, each with
    the product its spine takes instead.

    A triangle on a degenerate spine (id g = g, f id = f or, in symmetric
    mode, f f~ = id_src(f)) takes the degenerate value; any other takes
    the spine's least stored long edge, from :func:`brute_products`, and
    is a fault when that is another edge.
    """
    edges, products = model.edges, brute_products(model)
    faults = []
    for t in sorted(model.triangles):
        f, g, h = t
        if edges[f].is_identity:
            product = g
        elif edges[g].is_identity:
            product = f
        elif model.mode == "symmetric" and g == edges[f].inv:
            product = IDENTITY_PREFIX + edges[f].src
        elif products[(f, g)] != h:
            product = products[(f, g)]
        else:
            continue
        faults.append((t, product))
    return tuple(faults)


# -- starry-membership oracle -------------------------------------------------------


def _low_simplices(model):
    """Each simplex of dimension <= 2 as (vertices, edge between positions).

    Objects, nonidentity edges and stored triangles; ``edge[(p, q)]`` is the
    edge from vertex position p to q, an identity when p == q.
    """
    for obj in model.objects:
        yield (obj,), {(0, 0): pg.identity_name(obj)}
    for name in model.nonidentity_edges():
        e = model.edge(name)
        yield (e.src, e.tgt), {(0, 0): pg.identity_name(e.src), (0, 1): name,
                               (1, 0): model.inv(name),
                               (1, 1): pg.identity_name(e.tgt)}
    for f, g, h in sorted(model.triangles):
        verts = (model.edge(f).src, model.edge(f).tgt, model.edge(g).tgt)
        edge = {(p, p): pg.identity_name(verts[p]) for p in range(3)}
        for (p, q), x in (((0, 1), f), ((1, 2), g), ((0, 2), h)):
            edge[(p, q)], edge[(q, p)] = x, model.inv(x)
        yield verts, edge


def brute_starry_members(model, source, n):
    """The member starry words of length n at ``source``, by trying every phi.

    A word is a member when legs_i = edge_y(p, phi(i)) for a simplex y of
    dimension <= 2, a vertex p of y at the source and a map phi from the n
    leg positions to the vertices of y.
    """
    out = set()
    for verts, edge in _low_simplices(model):
        for p, vert in enumerate(verts):
            if vert != source:
                continue
            for phi in itertools.product(range(len(verts)), repeat=n):
                out.add(tuple(edge[(p, q)] for q in phi))
    return out


# -- rewriting oracle -----------------------------------------------------------------


def applicable_moves(cat, entries):
    """All applicable rewrites: ('compose', i) and ('delete', i) moves."""
    moves = []
    for i in range(len(entries) - 1):
        if cat.composable(entries[i], entries[i + 1]):
            moves.append(("compose", i))
    for i, name in enumerate(entries):
        if cat.is_identity(name):
            moves.append(("delete", i))
    return moves


def apply_move(cat, entries, move):
    kind, i = move
    if kind == "compose":
        h = cat.compose(entries[i + 1], entries[i])
        return entries[:i] + (h,) + entries[i + 2:]
    return entries[:i] + entries[i + 1:]


def rewrite(cat, entries, rng):
    """Rewrite to a normal form, drawing each step from the applicable moves."""
    entries = tuple(entries)
    while True:
        moves = applicable_moves(cat, entries)
        if not moves:
            return entries
        entries = apply_move(cat, entries, rng.choice(moves))


# -- triangulation oracle ----------------------------------------------------------


def oracle_diagonal_sets(n):
    """All maximal non-crossing diagonal sets of the (n+1)-gon."""
    diagonals = []
    for i in range(n + 1):
        for j in range(i + 2, n + 1):
            if (i, j) != (0, n):
                diagonals.append((i, j))

    def crosses(d1, d2):
        i, j = d1
        k, l = d2
        return (i < k < j < l) or (k < i < l < j)

    out = set()
    for combo in itertools.combinations(diagonals, n - 2):
        if all(not crosses(a, b) for a, b in itertools.combinations(combo, 2)):
            out.add(frozenset(combo))
    return out


# -- random sub-nerves --------------------------------------------------------------


# the groupoids whose nerves the property tests draw sub-nerves from
SUB_NERVE_GROUPOIDS = (pg.cyclic_group(2), pg.cyclic_group(3), pg.cyclic_group(4),
                       pg.pair_groupoid(["a", "b"]), pg.pair_groupoid(["a", "b", "c"]))


def sub_nerve(nerve, rng, edge_p, tri_p):
    """A random partial subgroupoid of a symmetric groupoid nerve.

    Each involution pair of nonidentity edges survives with probability
    ``edge_p``, and each triangle orbit on surviving edges with probability
    ``tri_p``.  The result embeds in the groupoid, so every word is kind.
    """
    kept = {}
    for name in sorted(nerve.edges):
        e = nerve.edge(name)
        if name not in kept:
            kept[name] = kept[e.inv] = e.is_identity or rng.random() < edge_p
    orbits = {}
    for tri in sorted(nerve.triangles):
        if all(kept[x] for x in tri):
            orbit = frozenset(orbit_images(tri, nerve.inv)) & nerve.triangles
            if orbit not in orbits:
                orbits[orbit] = rng.random() < tri_p
    triangles = set().union(*(orbit for orbit, keep in orbits.items() if keep))
    edges = [nerve.edge(name) for name in sorted(kept) if kept[name]]
    return pg.TruncatedModel(nerve.mode, nerve.objects, edges, triangles)


def oriented_half(model):
    """The simplicial model on the least edge of each two-edge involution
    pair of a symmetric model, with the stored triangles among them.  It
    maps into the model, so it is kind when the model is."""
    names = {pair[0] for pair in model.edge_pairs() if len(pair) == 2}
    edges = [(name, model.edge(name).src, model.edge(name).tgt) for name in sorted(names)]
    triangles = [t for t in model.triangles if set(t) <= names]
    return pg.TruncatedModel.simplicial(model.objects, edges, triangles)


def model_union(left, right):
    """The disjoint union of two models of one mode, every name of the left
    summand prefixed ``L`` and of the right one ``R`` (identities
    ``1@L<object>``)."""
    objects, edges, triangles = [], [], []
    for tag, model in (("L", left), ("R", right)):
        def name(e, tag=tag):
            if e.startswith(IDENTITY_PREFIX):
                return IDENTITY_PREFIX + tag + e[len(IDENTITY_PREFIX):]
            return tag + e

        objects += [tag + o for o in model.objects]
        edges += [pg.Edge(name(e.name), tag + e.src, tag + e.tgt,
                          inv=None if e.inv is None else name(e.inv),
                          is_identity=e.is_identity) for e in model.edges.values()]
        triangles += [tuple(map(name, t)) for t in model.triangles]
    return pg.TruncatedModel(left.mode, objects, edges, triangles)


# -- abelian image oracle -------------------------------------------------------------


def brute_abelian_classes(model):
    """The classes of two or more parallel edges equal in the abelian group
    of the product table, as a sorted tuple of sorted tuples.

    One column per edge, identities included, and one row per defined
    product f g = h (degenerates included), per identity (id = 0) and, in
    a symmetric model, per edge (e + e~ = 0).  Rows go into a dense
    echelon form by repeated Euclidean division in each column; a
    difference e - e' lies in the row lattice when every pivot divides it
    down to zero.
    """
    names = sorted(model.edges)
    col = {e: i for i, e in enumerate(names)}

    def vector(*terms):
        v = [0] * len(names)
        for e, k in terms:
            v[col[e]] += k
        return v

    rows = [vector((e, 1)) for e in names if model.is_identity(e)]
    if model.mode == "symmetric":
        rows += [vector((e, 1), (model.inv(e), 1)) for e in names]
    rows += [vector((f, 1), (g, 1), (h, -1))
             for f in names for g, h in model.products_from(f).items()]
    pivots = {}
    for c in range(len(names)):
        live = [r for r in rows if r[c]]
        rows = [r for r in rows if not r[c]]
        while len(live) > 1:
            live.sort(key=lambda r: abs(r[c]))
            head = live[0]
            rest = []
            for r in live[1:]:
                q = r[c] // head[c]
                r = [x - q * y for x, y in zip(r, head)]
                (rest if r[c] else rows).append(r)
            live = [head] + rest
        if live:
            pivots[c] = live[0]

    def in_lattice(v):
        for c in range(len(names)):
            if v[c] and (c not in pivots or v[c] % pivots[c][c]):
                return False
            if v[c]:
                q = v[c] // pivots[c][c]
                v = [x - q * y for x, y in zip(v, pivots[c])]
        return True

    parallel = {}
    for e in names:
        parallel.setdefault((model.edge(e).src, model.edge(e).tgt), []).append(e)
    classes = set()
    for group in parallel.values():
        for e in group:
            same = tuple(x for x in group if in_lattice(vector((e, 1), (x, -1))))
            if len(same) > 1:
                classes.add(same)
    return tuple(sorted(classes))


# -- superseded merge and peel paths ---------------------------------------------


def stabilized_merge(model, names):
    """``words._merge_parallel_edges`` as a stabilize loop on class names.

    Edge classes grow from ``names`` until no triangle, mapped to the least
    name of each class, has a degenerate spine with another value or a
    spine with two long edges; the degenerate products are re-derived here
    from class-level identities and inverses instead of read off a
    quotient model.  The quotient of the final classes is then built by
    the library, as in the merge it checks.
    """
    parent = {e: e for e in model.edges}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union_pair(a, b):
        changed = False
        for x, y in ((a, b), (model.inv(a), model.inv(b))):
            rx, ry = sorted((find(x), find(y)))
            if rx != ry:
                parent[ry] = rx
                changed = True
        return changed

    base = sorted(names)
    for other in base[1:]:
        union_pair(base[0], other)
    changed = True
    while changed:
        rep = {e: find(e) for e in model.edges}
        changed = False
        spines = {}
        mapped = {(rep[f], rep[g], rep[h]) for f, g, h in model.triangles}
        inv_rep = {rep[e]: rep[model.inv(e)] for e in model.edges}
        id_rep = {find(pg.identity_name(o)) for o in model.objects}
        for f, g, h in sorted(mapped):
            if f in id_rep:
                expected = g
            elif g in id_rep:
                expected = f
            elif g == inv_rep[f]:
                expected = find(pg.identity_name(model.edge(f).src))
            else:
                expected = None
            if expected is not None:
                if expected != h:
                    changed |= union_pair(h, expected)
                continue
            if (f, g) in spines and spines[(f, g)] != h:
                changed |= union_pair(spines[(f, g)], h)
            spines.setdefault((f, g), h)
    merged, rename = pg.words._quotient(model, find)
    report = merged.validate()
    if not report.ok:
        raise pg.WordError(f"merge left an invalid model: {report.summary()}")
    return merged, rename


def renamed_peel_step(t, t2, hom, target):
    """``polygon.peel_step`` by renaming: each edge of the smaller gluing
    takes the image of the big edge it was cut from, instead of being
    evaluated from the spine word."""
    n = t.n
    shared = t.triples & t2.triples
    if (0, n - 1, n) in shared:
        shift, wrap = 0, (0, n - 1, n)
    elif (0, 1, n) in shared:
        shift, wrap = 1, (0, 1, n)
    else:
        raise pg.GluingError("pair is already well-behaved, nothing to peel")
    s, s2 = (pg.Triangulation.of(n - 1, [tuple(v - shift for v in x)
                                         for x in tri.triples if x != wrap])
             for tri in (t, t2))
    small = pg.build_glued(s, s2, variant="na")
    edge_name = pg.polygon._edge_name
    big_names = {}
    for prefix in ("T", "T'"):
        for i in range(s.n + 1):
            for j in range(i + 1, s.n + 1):
                big_names[edge_name(s.n, prefix, i, j, False)] = edge_name(
                    n, prefix, i + shift, j + shift, False)
    vmap = {str(v): hom.vertex(str(v + shift)) for v in range(s.n + 1)}
    emap = {}
    for name in small.model.edges:
        e = small.model.edge(name)
        if e.is_identity:
            emap[name] = pg.identity_name(vmap[e.src])
        elif name.endswith("^"):
            emap[name] = target.inv(hom.edge(big_names[name[:-1]]))
        else:
            emap[name] = hom.edge(big_names[name])
    return small, pg.Hom.of(vmap, emap)


# -- category pool -----------------------------------------------------------------


def disjoint_union(cat1, cat2, tag1="L", tag2="R"):
    """Coproduct of finite categories, with names prefixed per summand."""

    def renamed(cat, tag):
        objects = [f"{tag}{o}" for o in cat.objects]
        morphs, table = [], {}

        def fix(name):
            if name.startswith(IDENTITY_PREFIX):
                return IDENTITY_PREFIX + tag + name[len(IDENTITY_PREFIX):]
            return tag + name

        for m in cat.nonidentity_morphisms():
            mor = cat.morphism(m)
            morphs.append((tag + m, tag + mor.src, tag + mor.tgt))
        for f in cat.nonidentity_morphisms():
            for g in cat.nonidentity_morphisms():
                if cat.morphism(f).tgt == cat.morphism(g).src:
                    table[(tag + g, tag + f)] = fix(cat.compose(g, f))
        return objects, morphs, table

    o1, m1, t1 = renamed(cat1, tag1)
    o2, m2, t2 = renamed(cat2, tag2)
    return FiniteCategory(o1 + o2, m1 + m2, {**t1, **t2})


def symmetric_group_3():
    """S3 as a one-object groupoid on its six permutations: the 3-cycles
    r and r2, the transpositions a, b and c."""
    names = {(0, 1, 2): IDENTITY_PREFIX + "o", (1, 2, 0): "r", (2, 0, 1): "r2",
             (0, 2, 1): "a", (2, 1, 0): "b", (1, 0, 2): "c"}
    perms = [p for p in names if not names[p].startswith(IDENTITY_PREFIX)]
    table = {(names[g], names[f]): names[tuple(g[i] for i in f)]
             for f in perms for g in perms}
    return FiniteCategory(["o"], [(names[p], "o", "o") for p in perms], table)


def groupoid_pool():
    pool = [
        pg.cyclic_group(2),
        pg.cyclic_group(3),
        pg.cyclic_group(4),
        pg.cyclic_group(5),
        pg.interval_groupoid(),
        pg.pair_groupoid(["a", "b"]),
        pg.pair_groupoid(["a", "b", "c"]),
        disjoint_union(pg.cyclic_group(2), pg.interval_groupoid()),
        disjoint_union(pg.cyclic_group(3), pg.pair_groupoid(["a", "b"])),
        disjoint_union(pg.pair_groupoid(["a", "b"]), pg.cyclic_group(4)),
    ]
    return pool


def category_pool():
    chain = pg.path_category(["0", "1", "2", "3"],
                             [("u", "0", "1"), ("v", "1", "2"), ("w", "2", "3")])
    fork = pg.path_category(["0", "1", "2"],
                            [("a", "0", "1"), ("b", "0", "1"), ("c", "1", "2")])
    square = pg.path_category(["0", "1", "2", "3"],
                              [("n", "0", "1"), ("e", "1", "3"),
                               ("w", "0", "2"), ("s", "2", "3")])
    doubled = pg.path_category(["0", "1"],
                               [("a", "0", "1"), ("b", "0", "1"),
                                ("c", "0", "1")])
    pool = groupoid_pool() + [
        chain, fork, square, doubled,
        disjoint_union(chain, pg.cyclic_group(2)),
        disjoint_union(fork, pg.interval_groupoid()),
        disjoint_union(square, doubled, "P", "Q"),
        disjoint_union(chain, fork, "P", "Q"),
        disjoint_union(doubled, pg.cyclic_group(3), "P", "Q"),
        disjoint_union(pg.pair_groupoid(["a", "b"]), square, "P", "Q"),
    ]
    return pool


def random_string(rng, cat, max_len=8):
    names = sorted(cat.morphisms)
    length = rng.randrange(0, max_len + 1)
    return tuple(rng.choice(names) for _ in range(length))


# -- fixture shorthands --------------------------------------------------------------


def load(name):
    return fixtures.load_model(name)


def example1_symmetric():
    return pg.symmetrize(load("example1.pgd"))


def horn_symmetric():
    return pg.symmetrize(load("horn.pgd"))


def square_pair():
    tris = pg.enumerate_triangulations(3)
    return tris[0], tris[1]


def pentagon_figure_pair():
    t = pg.Triangulation.of(4, [(0, 1, 4), (1, 3, 4), (1, 2, 3)])
    t2 = pg.Triangulation.of(4, [(0, 1, 2), (0, 2, 4), (2, 3, 4)])
    return t, t2


def pentagon_incompatible_pair():
    t = pg.Triangulation.of(4, [(0, 1, 4), (1, 2, 4), (2, 3, 4)])
    t2 = pg.Triangulation.of(4, [(0, 1, 2), (0, 2, 4), (2, 3, 4)])
    return t, t2


MODEL_FIXTURES = (
    "example1.pgd",
    "example2.pgd",
    "horn.pgd",
    "na_square.pgd",
    "a_square.pgd",
    "na_pentagon.pgd",
    "free_one_generator.pgd",
)
