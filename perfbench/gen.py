"""Seeded benchmark inputs, built without importing pgroupoid.

Every input is PGD or CAT text plus the answer known from how it was
built.  The generator keeps its own copy of each model (`Mini`), so the
oracle in `oracle.py` can re-check verdicts without calling the code
being timed.  All sizes, bounds and densities come from the seed, never
from a measured time, so two commits get byte-identical inputs.

Families:

* sub-nerves: a random partial subgroupoid of the nerve of
  pair(n objects) x Z_k.  It embeds into that groupoid by construction,
  so every word is kind and every orthogonality check passes.
* NA / A gluings of two triangulations of the (n+1)-gon, named as in the
  package (s1..sn, dT_ij, dT'_ij, lT, lT', or l when circular).  The NA
  spine word is mean with the two long edges as values.
* planted-mean unions: a kind sub-nerve disjoint-unioned with an NA
  gluing of a compatible pair; the only mean words live in the gluing.
* simplicial halves: one orientation per edge pair of a kind sub-nerve.
  They map into it, so they are kind too, and without inverse letters
  their scans can run out of valued words.
"""
from __future__ import annotations

import random

ID = "1@"


class Mini:
    """A model: objects, edges (with involution when symmetric), and spines,
    orbit-closed when symmetric."""

    def __init__(self, mode="symmetric"):
        self.mode = mode
        self.objects: list[str] = []
        self.edges: dict[str, tuple] = {}  # name -> (src, tgt, inv or None)
        self.decls: list[str] = []  # PGD edge lines, one per involution pair
        self.spine: dict[tuple[str, str], str] = {}
        self.reps: list[tuple[str, str, str]] = []  # one triangle per orbit

    def add_object(self, o):
        self.objects.append(o)
        self.edges[ID + o] = (o, o, ID + o)

    def add_edge(self, name, src, tgt, self_inverse=False):
        if self.mode == "simplicial":
            self.edges[name] = (src, tgt, None)
            self.decls.append(f"edge {name} {src} {tgt}")
        elif self_inverse:
            self.edges[name] = (src, tgt, name)
            self.decls.append(f"edge {name} {src} {tgt} self")
        else:
            self.edges[name] = (src, tgt, name + "^")
            self.edges[name + "^"] = (tgt, src, name)
            self.decls.append(f"edge {name} {src} {tgt}")

    def inv(self, e):
        return self.edges[e][2]

    def degenerate(self, f, g):
        sf, tf, invf = self.edges[f]
        if tf != self.edges[g][0]:
            return None
        if f.startswith(ID):
            return g
        if g.startswith(ID):
            return f
        if g == invf:
            return ID + sf
        return None

    def orbit(self, f, g, h):
        i = self.inv
        return ((f, g, h), (g, i(h), i(f)), (i(h), f, i(g)),
                (i(f), h, g), (h, i(g), f), (i(g), i(f), i(h)))

    def add_triangle(self, f, g, h):
        images = self.orbit(f, g, h) if self.mode == "symmetric" else ((f, g, h),)
        for a, b, c in images:
            if self.degenerate(a, b) == c:
                continue
            old = self.spine.setdefault((a, b), c)
            if old != c:
                raise ValueError(f"spine ({a},{b}) collides: {old} vs {c}")
        self.reps.append((f, g, h))

    def mult(self, f, g):
        if self.edges[f][1] != self.edges[g][0]:
            return None
        h = self.spine.get((f, g))
        return h if h is not None else self.degenerate(f, g)

    def nonidentity(self):
        return sorted(e for e in self.edges if not e.startswith(ID))

    def pgd(self) -> str:
        out = ["pgd 1", f"mode {self.mode}"]
        out += [f"object {o}" for o in self.objects]
        out += self.decls
        out += ["tri " + " ".join(t) for t in self.reps]
        return "\n".join(out) + "\n"


def oriented_half(m: Mini) -> Mini:
    """The simplicial model of one orientation per non-self-inverse edge
    pair of ``m``, with the triangles among those edges.  It maps into
    ``m``, so it is kind when ``m`` is, and its symmetrization is the
    sub-model of ``m`` on the same edges."""
    half = Mini("simplicial")
    for o in m.objects:
        half.add_object(o)
    for e in m.nonidentity():
        if not e.endswith("^") and m.inv(e) != e:
            half.add_edge(e, *m.edges[e][:2])
    for (f, g), h in sorted(m.spine.items()):
        if {f, g, h} <= half.edges.keys():
            half.add_triangle(f, g, h)
    return half


def symmetrized(m: Mini) -> Mini:
    """Fresh inverses for every edge of a simplicial model, orbit-closed."""
    sym = Mini()
    for o in m.objects:
        sym.add_object(o)
    for e in m.nonidentity():
        sym.add_edge(e, *m.edges[e][:2])
    for t in m.reps:
        sym.add_triangle(*t)
    return sym


def union(a: Mini, b: Mini) -> Mini:
    """Disjoint union; the two summands must use disjoint names."""
    m = Mini()
    for part in (a, b):
        m.objects += part.objects
        m.edges.update(part.edges)
        m.decls += part.decls
        m.spine.update(part.spine)
        m.reps += part.reps
    return m


# -- groupoid nerves and their partial subgroupoids ---------------------------


def sub_nerve(rng, n_obj, k, edge_p, tri_p, tag="p"):
    """Random partial subgroupoid of the nerve of pair(n_obj) x Z_k.

    Morphisms are (a, b, i): a -> b with Z_k label i.  One name per
    involution pair, ``e{a}{b}_{i}`` for the lexicographically smaller
    element; edge pairs survive with probability ``edge_p`` and triangle
    orbits whose three edges survived with probability ``tri_p``.
    """
    objs = [f"{tag}{a}" for a in range(n_obj)]
    m = Mini()
    for o in objs:
        m.add_object(o)
    name = {}
    for a in range(n_obj):
        name[(a, a, 0)] = ID + objs[a]
    for a in range(n_obj):
        for b in range(n_obj):
            for i in range(k):
                e = (a, b, i)
                if e in name:
                    continue
                partner = (b, a, (-i) % k)
                base = f"e{tag}{a}{b}_{i}"
                if rng.random() >= edge_p:
                    name[e] = name[partner] = None
                    continue
                m.add_edge(base, objs[a], objs[b], self_inverse=partner == e)
                name[e] = base
                if partner != e:
                    name[partner] = base + "^"
    kept = sorted(e for e, nm in name.items() if nm and not nm.startswith(ID))
    seen = set()
    for f in kept:
        for g in kept:
            if f[1] != g[0]:
                continue
            h = (f[0], g[1], (f[2] + g[2]) % k)
            if not name[h] or name[h].startswith(ID):
                continue
            tri = (name[f], name[g], name[h])
            key = frozenset(m.orbit(*tri))
            if key in seen:
                continue
            seen.add(key)
            if rng.random() < tri_p:
                m.add_triangle(*tri)
    return m


def nerve(n_obj, k, tag="p"):
    """The full 2-truncated nerve of pair(n_obj) x Z_k."""
    return sub_nerve(random.Random(0), n_obj, k, 1.0, 1.0, tag)


def free_one_generator():
    m = Mini()
    m.add_object("o")
    m.add_edge("x", "o", "o")
    return m


def horn_symmetric():
    """Symmetrization of the 1-horn of the 3-simplex (faces 012, 013, 123)."""
    m = Mini()
    for o in "0123":
        m.add_object(o)
    for name, s, t in (("u", "0", "1"), ("v", "1", "2"), ("w", "2", "3"),
                       ("x", "0", "2"), ("y", "0", "3"), ("z", "1", "3")):
        m.add_edge(name, s, t)
    for tri in (("u", "v", "x"), ("u", "z", "y"), ("v", "w", "z")):
        m.add_triangle(*tri)
    return m


# -- triangulations and gluings --------------------------------------------------


def triangulations(n):
    """All triangulations of the (n+1)-gon, in the package's canonical order."""

    def rec(vs):
        if len(vs) < 3:
            return [frozenset()]
        out = []
        for idx in range(1, len(vs) - 1):
            for left in rec(vs[: idx + 1]):
                for right in rec(vs[idx:]):
                    out.append(left | right | {(vs[0], vs[idx], vs[-1])})
        return out

    return sorted(tuple(sorted(t)) for t in rec(tuple(range(n + 1))))


def classify(n, t, t2):
    """incompatible / compatible / well_behaved by the shared-ear tests."""
    shared = set(t) & set(t2)
    if any((i - 1, i, i + 1) in shared for i in range(1, n)):
        return "incompatible"
    wraps = {tuple(sorted((n - 1, n, 0))), tuple(sorted((n, 0, 1)))}
    return "compatible" if shared & wraps else "well_behaved"


def has_cone(n, t, t2):
    """Two triangles of one half fanning out of an ear of the other."""
    for a, b in ((t, t2), (t2, t)):
        for i in range(1, n):
            if (i - 1, i, i + 1) not in b:
                continue
            for k in range(n + 1):
                if k in (i - 1, i, i + 1):
                    continue
                if (tuple(sorted((i - 1, i, k))) in a
                        and tuple(sorted((i, i + 1, k))) in a):
                    return True
    return False


def gluing(n, t, t2, circular=False):
    """Glue two triangle complexes along the (circular) spine."""
    m = Mini()
    for v in range(n + 1):
        m.add_object(str(v))

    def edge(prefix, i, j):
        if j == i + 1:
            nm = f"s{j}"
        elif (i, j) == (0, n):
            nm = "l" if circular else "l" + prefix
        else:
            nm = f"d{prefix}_{i}{j}"
        if nm not in m.edges:
            m.add_edge(nm, str(i), str(j))
        return nm

    for prefix, tris in (("T", t), ("T'", t2)):
        for i, j, k in tris:
            m.add_triangle(edge(prefix, i, j), edge(prefix, j, k), edge(prefix, i, k))
    return m


def pairs_of(n, cls):
    tris = triangulations(n)
    return [(i, j) for i, t in enumerate(tris) for j, t2 in enumerate(tris)
            if classify(n, t, t2) in cls]


def random_na(rng, n, cls=("compatible", "well_behaved")):
    """An NA gluing of a seeded pair of the given classes, with its indices."""
    i, j = rng.choice(pairs_of(n, cls))
    tris = triangulations(n)
    return gluing(n, tris[i], tris[j]), i, j


# -- CAT text ---------------------------------------------------------------------


def groupoid_cat(n_obj, k):
    """CAT text of pair(n_obj) x Z_k with its own composition, for the oracle."""
    objs = [f"c{a}" for a in range(n_obj)]
    morph = {}
    for a in range(n_obj):
        for b in range(n_obj):
            for i in range(k):
                morph[(a, b, i)] = ID + objs[a] if (a == b and i == 0) else f"m{a}{b}_{i}"
    lines = ["cat 1", "objects " + " ".join(objs)]
    for (a, b, i), nm in sorted(morph.items()):
        if not nm.startswith(ID):
            lines.append(f"mor {nm} {objs[a]} {objs[b]}")
    for f, fn in sorted(morph.items()):
        for g, gn in sorted(morph.items()):
            if f[1] == g[0] and not fn.startswith(ID) and not gn.startswith(ID):
                lines.append(f"comp {gn} {fn} {morph[(f[0], g[1], (f[2] + g[2]) % k)]}")
    text = "\n".join(lines) + "\n"
    ends = {nm: (objs[a], objs[b]) for (a, b, i), nm in morph.items()}
    compose = {(morph[f], morph[g]): morph[(f[0], g[1], (f[2] + g[2]) % k)]
               for f in morph for g in morph if f[1] == g[0]}
    return text, ends, compose


# -- cost control -------------------------------------------------------------------


def product_rows(m: Mini):
    """Left factor -> {right factor: product}, degenerate products included."""
    rows = {e: {} for e in m.edges}
    for f in m.edges:
        for g in m.edges:
            h = m.mult(f, g)
            if h is not None:
                rows[f][g] = h
    return rows


def layer_sizes(m: Mini, max_len: int, cap: int):
    """Valued words per length 1, 2, ... up to ``max_len``, as a bounded scan
    sees them, and whether the last layer holds a mean word.

    Layer L maps each valued word to its value set, grown from the
    productive splits of shorter layers.  The list ends after the first
    layer with a mean word, where a scan stops, or before the first layer
    that would take the total past ``cap``, which bounds the cost of a
    candidate that grows too fast.
    """
    rows = product_rows(m)
    letters = m.nonidentity()
    layers = [{}, {(e,): {e} for e in letters}]
    by_value = [{}, {e: [(e,)] for e in letters}]
    total = len(letters)
    for length in range(2, max_len + 1):
        acc = {}
        for k in range(1, length):
            complement = by_value[length - k]
            for w1, vals in layers[k].items():
                for a in vals:
                    for b, h in rows[a].items():
                        for w2 in complement.get(b, ()):
                            acc.setdefault(w1 + w2, set()).add(h)
        total += len(acc)
        if total > cap:
            break
        index = {}
        for w, vals in acc.items():
            for h in vals:
                index.setdefault(h, []).append(w)
        layers.append(acc)
        by_value.append(index)
        if any(len(vals) > 1 for vals in acc.values()):
            return [len(layer) for layer in layers[1:]], True
    return [len(layer) for layer in layers[1:]], False
