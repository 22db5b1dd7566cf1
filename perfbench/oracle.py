"""Independent re-checks of verdicts, on the generator's own model copies.

Nothing here imports pgroupoid: values come from enumerating every
parenthesization, homs are checked triangle by triangle against the
generator's product table, and counts come from the generator's own
triangulation enumeration.  Each check returns None when the verdict
holds and a one-line reason when it does not.
"""
from __future__ import annotations

from math import comb

import gen


def catalan(n: int) -> int:
    return comb(2 * n, n) // (n + 1)


def tree_values(m: gen.Mini, word) -> set[str]:
    """Values of ``word`` over all parenthesizations, enumerated tree by tree."""

    def evals(i, j):
        if i == j:
            yield word[i]
            return
        for k in range(i, j):
            for a in evals(i, k):
                for b in evals(k + 1, j):
                    h = m.mult(a, b)
                    if h is not None:
                        yield h

    return set(evals(0, len(word) - 1))


def composable(m: gen.Mini, word) -> bool:
    return all(e in m.edges for e in word) and all(
        m.edges[a][1] == m.edges[b][0] for a, b in zip(word, word[1:]))


def check_mean_witness(m, word, values, max_len):
    word = tuple(word)
    if not 3 <= len(word) <= max_len:
        return f"witness length {len(word)} outside 3..{max_len}"
    if not composable(m, word) or any(e.startswith(gen.ID) for e in word):
        return f"witness {word} is not a composable nonidentity word"
    got = tree_values(m, word)
    if got != set(values) or len(got) < 2:
        return f"witness {word}: reported values {sorted(values)}, trees give {sorted(got)}"
    return None


def check_mountain(m, word, f, g, max_len):
    word = tuple(word)
    if not word or len(word) > max_len or not composable(m, word):
        return f"mountain {word} is not a composable word within {max_len}"
    if not {f, g} <= tree_values(m, word):
        return f"mountain {word} misses {f} or {g}"
    return None


def mean_word_up_to(m: gen.Mini, max_len: int):
    """First word of length <= max_len with two tree values, or None."""
    letters = m.nonidentity()
    words = [(e,) for e in letters]
    for _ in range(2, max_len + 1):
        words = [w + (e,) for w in words for e in letters
                 if m.edges[w[-1]][1] == m.edges[e][0]]
        for w in words:
            if len(tree_values(m, w)) >= 2:
                return w
    return None


def check_violator(target: gen.Mini, t_key, t2_key, edge_map, max_gon):
    """The map must be a hom NA(T, T') -> target that splits the long edges."""
    t, t2 = tuple(map(tuple, t_key)), tuple(map(tuple, t2_key))
    n = len(t) + 1
    if not 3 <= n <= max_gon or gen.classify(n, t, t2) != "well_behaved":
        return f"violator pair at n={n} is not a well-behaved pair within {max_gon}"
    source = gen.gluing(n, t, t2)
    emap = dict(edge_map)
    if set(emap) != set(source.edges):
        return "violator map does not cover the glued edges"
    vmap = {}
    for name, (src, tgt, inv) in source.edges.items():
        img = emap[name]
        if img not in target.edges:
            return f"violator sends {name} to unknown edge {img}"
        isrc, itgt, iinv = target.edges[img]
        if vmap.setdefault(src, isrc) != isrc or vmap.setdefault(tgt, itgt) != itgt:
            return f"violator breaks endpoints at {name}"
        if emap[inv] != iinv or (name.startswith(gen.ID) and not img.startswith(gen.ID)):
            return f"violator breaks inverses or identities at {name}"
    for (f, g), h in source.spine.items():
        if target.mult(emap[f], emap[g]) != emap[h]:
            return f"violator breaks triangle ({f},{g},{h})"
    if emap["lT"] == emap["lT'"]:
        return "violator identifies the long edges"
    return None


def first_pregroup_fault(m: gen.Mini):
    """First (a, b, c) with ab, bc defined and (ab)c != a(bc), as the CLI orders them."""
    rows = gen.product_rows(m)
    for a in m.nonidentity():
        for b in sorted(rows[a]):
            if b.startswith(gen.ID):
                continue
            for c in sorted(rows[b]):
                if c.startswith(gen.ID):
                    continue
                if rows[rows[a][b]].get(c) != rows[a].get(rows[b][c]):
                    return [a, b, c]
    return None


def triangle_orbits(m: gen.Mini) -> int:
    return len({frozenset(m.orbit(f, g, h)) for (f, g), h in m.spine.items()})


def self_inverse_edges(m: gen.Mini) -> int:
    return sum(1 for e, (_, _, inv) in m.edges.items()
               if inv == e and not e.startswith(gen.ID))


def normal_form(ends, compose, entries):
    """Reduced jagged string: compose neighbours (f then g), drop identities."""
    stack = []
    for e in entries:
        if e.startswith(gen.ID):
            continue
        if stack and ends[stack[-1]][1] == ends[e][0]:
            e = compose[(stack.pop(), e)]
            if e.startswith(gen.ID):
                continue
        stack.append(e)
    return stack
