"""The word-contraction calculus on a truncated model.

A word is a nonempty tuple of edge names forming a composable chain.
Contraction replaces an adjacent pair by its product when the model has a
2-simplex (stored or degenerate) with that spine; iterating contractions
down to a single edge evaluates one full parenthesization of the word.
``values(w)`` is the set of edges obtainable this way; a word with two or
more values is *mean*, otherwise *kind*.  An edge is *sad* when it is a
value of some mean word, and a model embeds into the nerve of its
fundamental groupoid exactly when every edge is happy, so the bounded
scan below is the embeddability probe of the package.  All values of one
word have one image in the abelian group of the triangle relations, so
:func:`abelian_suspects` lists the parallel edges that can be two values
of a word, and the scan reads only those, or none.

Searches are deterministic: witnesses are the shortest mean word, and
among those the one with the fewest inverse-marked letters, ties broken
lexicographically.
"""
from __future__ import annotations

from collections import deque
from itertools import chain

from .model import SYMMETRIC, Edge, TruncatedModel, identity_name, word_sort_key
from .records import Record


class WordError(ValueError):
    """Malformed word or an operation applied outside its precondition."""


# -- basic word plumbing ------------------------------------------------------


def check_word(model: TruncatedModel, word) -> tuple[str, ...]:
    word = tuple(word)
    if not word:
        raise WordError("words must be nonempty")
    for name in word:
        model.edge(name)
    for a, b in zip(word, word[1:]):
        if not model.composable(a, b):
            raise WordError(f"edges {a} and {b} do not compose in sequence")
    return word


def word_inverse(model: TruncatedModel, word) -> tuple[str, ...]:
    if model.mode != SYMMETRIC:
        raise WordError("word inversion needs a symmetric model")
    return tuple(model.inv(e) for e in reversed(word))


def contract(model: TruncatedModel, word, i: int):
    """One inner face: merge positions i, i+1 (1-based), or None if undefined."""
    word = check_word(model, word)
    if not 1 <= i < len(word):
        raise WordError(f"contraction index {i} out of range for length {len(word)}")
    h = model.mult(word[i - 1], word[i])
    if h is None:
        return None
    return word[: i - 1] + (h,) + word[i + 1 :]


def contractions(model: TruncatedModel, word):
    """All one-step contractions, index order.  The word is trusted."""
    out = []
    for i in range(1, len(word)):
        h = model.mult(word[i - 1], word[i])
        if h is not None:
            out.append(word[: i - 1] + (h,) + word[i + 1 :])
    return out


# -- full-contraction values (interval dynamic programming) -------------------


def _derivations(model: TruncatedModel, word) -> dict:
    """The interval table of all parenthesizations.  The word is trusted.

    Cell (i, j) maps each value of word[i..j] to its first derivation
    (k, u, v): split after position k, left value u, right value v, in
    deterministic order (split position ascending, then sorted
    sub-values); a leaf maps its letter to None.  Cells iterate in sorted
    order.  Degenerate products count.
    """
    n = len(word)
    table = {(i, i): {word[i]: None} for i in range(n)}
    for span in range(2, n + 1):
        for i in range(n - span + 1):
            j = i + span - 1
            cell = {}
            for k in range(i, j):
                right = table[(k + 1, j)]
                for u in table[(i, k)]:
                    prods = model.products_from(u)
                    for v in right:
                        h = prods.get(v)
                        if h is not None and h not in cell:
                            cell[h] = (k, u, v)
            table[(i, j)] = dict(sorted(cell.items()))
    return table


def values(model: TruncatedModel, word) -> frozenset[str]:
    """The set of edges the word contracts to, over all parenthesizations."""
    word = check_word(model, word)
    return frozenset(_derivations(model, word)[(0, len(word) - 1)])


def value_trees(model: TruncatedModel, word) -> dict[str, object]:
    """One parenthesization per value, as nested tuples over leaves 1..n.

    The tree for a value is its first derivation in the order of
    :func:`_derivations`; leaves are 1-based positions, internal nodes are
    pairs (left, right).
    """
    word = check_word(model, word)
    table = _derivations(model, word)

    def tree(i, j, val):
        if i == j:
            return i + 1
        k, u, v = table[(i, j)][val]
        return (tree(i, k, u), tree(k + 1, j, v))

    n = len(word)
    return {val: tree(0, n - 1, val) for val in table[(0, n - 1)]}


def is_mean(model: TruncatedModel, word) -> bool:
    return len(values(model, word)) >= 2


# -- bottom-up table of valued words ------------------------------------------


class ValueTable:
    """The valued words of each length, read class by class.

    Letters are the nonidentity edges (an identity letter never changes a
    value set), and a word is packed into one int, ``bits`` bits per
    letter index with the first letter highest.  ``keys[L]``, built for
    every length up to the one asked, holds the values that some word of
    length L has, in every component: v1·v2 for a key v1 at some k < L and
    a key v2 at L - k, degenerate products included.  The keys alone
    decide emptiness, exhaustion and which values of a class a length
    reaches.  ``sets[L]`` maps a value h to its packed words, built only
    when asked for, after the sets it is built from, and then kept: for
    each such factorization of h, the words of v1 followed by those of v2.
    Both read one index per table, each value h -> its factorizations
    (v1, v2), degenerate products included.  The walk that lists the
    unbuilt sets tests each factorization once and records the joins it
    finds as the plan of its set, so each set is then built by one join
    over its plan.

    Each of the ``classes`` is two or more parallel edges that may be two
    values of one word, and a word with two values has all of them in one
    class, so :meth:`layer` builds at each length only the sets of the
    values of each class that reaches two or more values there, and the
    factor sets that the demand walk of :meth:`_fill` reaches from them.
    A product v1·v2 = h lies in one connected component, so every set
    built lies in a component that holds a class; the keys cover every
    component, so exhaustion stays exact.
    """

    def __init__(self, model: TruncatedModel, classes: tuple[tuple[str, ...], ...]):
        self.classes = classes
        self.letters = model.nonidentity_edges()
        self.bits = max(1, (len(self.letters) - 1).bit_length())
        self.keys = [set(), set(self.letters)]
        self.sets = [{}, {e: {i} for i, e in enumerate(self.letters)}]
        self._to: dict[str, list[tuple[str, str]]] = {}
        for v1 in model.edges:
            for v2, h in model.products_from(v1).items():
                self._to.setdefault(h, []).append((v1, v2))
        self._exhausted = False

    def layer(self, length: int) -> set[int]:
        """The words of the sets of :meth:`kept` at ``length``, built first
        with the keys of every length up to it."""
        while len(self.keys) <= length:
            self._key_next()
        kept = self.kept(length)
        self._fill(length, kept)
        return set().union(*(self.sets[length][v] for v in kept))

    def kept(self, length: int) -> set[str]:
        """The values of each class that reaches two or more of them at
        ``length``, once its keys are built."""
        out = set()
        for c in self.classes:
            hit = self.keys[length].intersection(c)
            if len(hit) > 1:
                out |= hit
        return out

    def decode(self, word: int, length: int) -> tuple[str, ...]:
        mask = (1 << self.bits) - 1
        return tuple(self.letters[(word >> self.bits * i) & mask]
                     for i in reversed(range(length)))

    def _key_next(self):
        """The keys of the next length: the values with a factorization
        keyed at some split, each found by a plain walk over its
        factorizations and the splits that stops at the first keyed one.
        Once a dyadic window of lengths has no key, no longer word has a
        productive split."""
        size = len(self.keys)
        splits = [(self.keys[k], self.keys[size - k]) for k in range(1, size)]
        acc = set()
        for h, pairs in self._to.items():
            for v1, v2 in pairs:
                for left, right in splits:
                    if v1 in left and v2 in right:
                        acc.add(h)
                        break
                if h in acc:
                    break
        if not acc and not any(self.keys[(size + 1) // 2:]):
            self._exhausted = True
        self.keys.append(acc)
        self.sets.append({})

    def _fill(self, length: int, wanted) -> None:
        """Build the sets of ``wanted`` at ``length``, after the unbuilt
        sets they are built from: the set of h at m joins the words of v1
        with those of v2, for each factorization v1·v2 = h keyed at a split
        (k, m - k).  The unbuilt sets are listed top-down, and the walk
        keeps, per set, its plan: the keyed factorizations it found, each
        with the layers k and m - k it joins and the shift of the left
        words.  The sets are then built bottom-up, each in one set
        comprehension over its plan, with no factorization tested again."""
        keys, sets, to, bits = self.keys, self.sets, self._to, self.bits
        need = [set() for _ in range(length + 1)]
        need[length] = set(wanted)
        plans = [None] * (length + 1)
        for m in range(length, 1, -1):
            need[m].difference_update(sets[m])
            splits = [(keys[k], keys[m - k], need[k], need[m - k], sets[k], sets[m - k],
                       bits * (m - k)) for k in range(1, m)]
            plan = plans[m] = {}
            for h in need[m]:
                joins = plan[h] = []
                pairs = to.get(h, ())
                for left, right, left_need, right_need, left_sets, right_sets, shift in splits:
                    for v1, v2 in pairs:
                        if v1 in left and v2 in right:
                            left_need.add(v1)
                            right_need.add(v2)
                            joins.append((left_sets, v1, right_sets, v2, shift))
        for m in range(2, length + 1):
            built = sets[m]
            for h, joins in plans[m].items():
                built[h] = {w << shift | r for left, v1, right, v2, shift in joins
                            for w in left[v1] for r in right[v2]}

    def exhausted_at(self, length: int) -> bool:
        """True when every length beyond ``length`` is known to have no word.

        Valid once layer ``length`` has been asked for.  Exhaustion is
        proven at the first length that closes a dyadic window without
        keys: every longer word then lacks a productive split.  After that
        the answer holds for any ``length`` whose later keys are all empty.
        """
        return self._exhausted and not any(self.keys[length + 1:])


# -- mean/kind scan ------------------------------------------------------------


class MeanScanResult(Record):
    """Outcome of a bounded search for mean words.

    ``witness`` is None for a bounded-kind verdict; otherwise it is the
    first mean word in canonical order (see :func:`word_sort_key`) and
    ``witness_values`` holds its full value set.  ``sad_edges`` is the
    union of values of the discovered mean words (all of them under
    ``collect_all``).
    """

    __slots__ = ("bound", "witness", "witness_values", "sad_edges",
                 "mean_word_count")

    def __init__(self, bound: int, witness: tuple[str, ...] | None = None,
                 witness_values: tuple[str, ...] = (),
                 sad_edges: tuple[str, ...] = (), mean_word_count: int = 0):
        self.bound = bound
        self.witness = witness
        self.witness_values = witness_values
        self.sad_edges = sad_edges
        self.mean_word_count = mean_word_count

    @property
    def is_kind(self) -> bool:
        return self.witness is None


def _scan(model: TruncatedModel, max_len: int, classes: tuple[tuple[str, ...], ...],
          collect_all: bool = False) -> MeanScanResult:
    """Search words of length 2..max_len for two values in one of the
    ``classes``, layer by layer in one :class:`ValueTable`.

    A word with two values has all of them in one class, so it lies in two
    of the sets the table builds for its length.  Of each pair of listed
    classes C and inv(C) != C that :func:`_mirrored` names, the table
    fills only C, and each mean word of C found adds its inverse, a mean
    word of inv(C) of the same length.  The witness is the least word, by
    :func:`word_sort_key`, among those found at the first length that has
    one and their inverses, with its values there, re-checked with
    :func:`values`; the scan stops there unless ``collect_all``, and on
    exhaustion.
    """
    among = set(chain.from_iterable(classes))
    mirrored = _mirrored(model, classes)
    dropped = {tuple(sorted(map(model.inv, c))) for c in mirrored}
    flip = set(chain.from_iterable(mirrored))
    table = ValueTable(model, tuple(c for c in classes if c not in dropped))
    witness, witness_values, count, sad = None, (), 0, set()
    for length in range(2, max_len + 1):
        layer = table.layer(length)
        index = {v: table.sets[length][v] for v in table.kept(length)}
        # no word lies in two sets when their sizes add up to their union's
        if sum(map(len, index.values())) > len(layer):
            found, seen = set(), set()
            for ws in index.values():
                found |= seen & ws
                seen |= ws
            flipped = found.intersection(set().union(*(index[v] for v in flip & index.keys())))
            if witness is None:
                words = [(table.decode(w, length), w, False) for w in found]
                words += [(word_inverse(model, word), w, True)
                          for word, w, _ in words if w in flipped]
                witness, packed, inverted = min(words, key=lambda c: word_sort_key(c[0]))
                read = [v for v, ws in index.items() if packed in ws]
                witness_values = tuple(sorted(map(model.inv, read) if inverted else read))
                if tuple(sorted(values(model, witness) & among)) != witness_values:
                    raise AssertionError(f"witness {witness} fails its values re-check")
                if not collect_all:
                    return MeanScanResult(max_len, witness, witness_values, witness_values, 1)
            count += len(found) + len(flipped)
            hit = {v for v, ws in index.items() if not ws.isdisjoint(found)}
            sad |= hit
            sad.update(map(model.inv, hit & flip))
        if table.exhausted_at(length):
            break
    return MeanScanResult(max_len, witness, witness_values, tuple(sorted(sad)), count)


def _mirrored(model: TruncatedModel, classes) -> tuple[tuple[str, ...], ...]:
    """The classes C whose inverse class inv(C), the sorted inverses of C,
    is listed too and greater than C.

    On a symmetric model with no spine fault, the product table is closed
    under (f, g, h) -> (g~, f~, h~), degenerate products included, so every
    parenthesization of a word w reads backwards as one of its inverse:
    the values of w~ are the inverses of the values of w.  Elsewhere no
    class is mirrored.
    """
    if model.mode != SYMMETRIC or model._spine_faults:
        return ()
    listed = set(classes)
    return tuple(c for c in classes
                 if c < (partner := tuple(sorted(map(model.inv, c)))) and partner in listed)


def _refuse_involution_faults(model: TruncatedModel) -> None:
    if model._involution_faults:
        raise WordError("the scan needs a model whose involution is valid")


def mean_scan(model: TruncatedModel, max_len: int, *,
              collect_all: bool = False) -> MeanScanResult:
    """Search composable words of length 2..max_len for a mean word.

    All values of a mean word lie in one suspect class of
    :func:`abelian_suspects`, so a model with no suspect class is kind at
    every length without a scan, and otherwise :func:`_scan` reads only
    the suspect classes that reach two values at each length, one class
    of each inverse pair.  The witness, its values, the sad edges and the
    count are those of the scan over every parallel class.  A model with
    involution faults is refused with :class:`WordError`.
    """
    if max_len < 2:
        raise WordError("mean scan needs max_len >= 2")
    suspects = abelian_suspects(model)
    if not suspects:
        return MeanScanResult(max_len)
    return _scan(model, max_len, suspects, collect_all)


# -- the abelian certificate -----------------------------------------------------


def _parallel_classes(model: TruncatedModel) -> tuple[tuple[str, ...], ...]:
    """The classes of two or more parallel edges, each sorted, in order."""
    parallel: dict[tuple[str, str], list[str]] = {}
    for name, e in model.edges.items():
        parallel.setdefault((e.src, e.tgt), []).append(name)
    return tuple(sorted(tuple(sorted(c)) for c in parallel.values() if len(c) > 1))


def abelian_suspects(model: TruncatedModel) -> tuple[tuple[str, ...], ...]:
    """The classes of two or more parallel edges with one abelian image.

    Let A be the abelian group on the edges modulo f + g = h for each
    stored triangle (f, g, h), with identities 0 and f~ = -f.  Every
    product the scan reads is a stored spine or degenerate, so a
    contraction keeps the sum of a word's letters in A, and all values of
    a word, at any length, are parallel edges with one image.  Each such
    class of two or more edges is a suspect class, and a model with none
    has no mean word.  A is Z^n modulo the triangle rows, one column per
    involution pair (per nonidentity edge in a simplicial model), a row
    2x per self-inverse loop x and one row per triangle orbit the model
    keeps, read off its one kept image: the six images of an orbit give
    one row up to sign, and up to the row 2x where they differ by a
    self-inverse loop x.  Only edges with a parallel partner are reduced,
    and every row is re-checked against the basis.  A model with no
    stored triangle has distinct images on distinct edges, so it gets no
    suspect class before any column is built.  Each call builds A again.

    A model with involution faults is refused with :class:`WordError`:
    there a degenerate product f·f~, the identity at the source of f, need
    not end where f~ does, so the values of a word need not be parallel.
    """
    _refuse_involution_faults(model)
    if not model.triangles:
        return ()
    closed = model.mode == SYMMETRIC
    # Each nonidentity edge reads a signed column, from 1: f -> c and, in a
    # closed model, f~ -> -c.  An identity reads 0 and adds nothing to a row.
    column: dict[str, int] = {}
    relations = set()
    cols = 0
    for name in model.nonidentity_edges():
        if name in column:
            continue
        cols += 1
        column[name] = cols
        if closed:
            partner = model.edges[name].inv
            if partner == name:
                relations.add(((cols, 2),))
            else:
                column[partner] = -cols
    for f, g, h in model._orbits:
        row: dict[int, int] = {}
        for x in (column.get(f, 0), column.get(g, 0), -column.get(h, 0)):
            if x:
                row[abs(x)] = row.get(abs(x), 0) + (1 if x > 0 else -1)
        rel = tuple(sorted(item for item in row.items() if item[1]))
        if rel:
            relations.add(rel)
    basis = _echelon(relations)
    for rel in relations:
        if _reduce(basis, rel):
            raise AssertionError(f"relation {rel} fails its re-check against the basis")
    classes = []
    for names in _parallel_classes(model):
        images: dict[tuple, list[str]] = {}
        for name in names:
            x = column.get(name, 0)
            unit = ((abs(x), 1 if x > 0 else -1),)
            if not x:
                image = ()
            elif abs(x) in basis:
                image = _reduce(basis, unit)
            else:
                image = unit  # a column without a pivot row is its own remainder
            images.setdefault(image, []).append(name)
        classes += [tuple(c) for c in images.values() if len(c) > 1]
    return tuple(sorted(classes))


def _echelon(relations) -> dict[int, dict[int, int]]:
    """An echelon basis of the lattice the rows span: pivot column -> row
    (column -> coefficient) whose least column is the pivot, positive there.

    A row a·x + ... meeting a pivot row p·x + ... is cut down by it when p
    divides a, the common case.  Otherwise the two rows are replaced by
    their combinations by the extended gcd g: one with g at x, the new
    pivot row, and one with 0 there, which goes on.  The pair is
    unimodular, so the lattice is kept.
    """
    basis: dict[int, dict[int, int]] = {}
    for rel in relations:
        row = dict(rel)
        while row:
            col = min(row)
            a = row[col]
            pivot = basis.get(col)
            if pivot is None:
                basis[col] = row if a > 0 else {c: -k for c, k in row.items()}
                break
            p = pivot[col]
            if a % p == 0:
                row = _combine(1, row, -(a // p), pivot)
            else:
                g, s, t = _xgcd(p, a)
                basis[col] = _combine(s, pivot, t, row)
                row = _combine(a // g, pivot, -(p // g), row)
    return basis


def _combine(x: int, u: dict[int, int], y: int, v: dict[int, int]) -> dict[int, int]:
    """x u + y v, without zero coefficients."""
    out = {c: x * k for c, k in u.items()}
    for c, k in v.items():
        out[c] = out.get(c, 0) + y * k
    return {c: k for c, k in out.items() if k}


def _xgcd(p: int, a: int) -> tuple[int, int, int]:
    """(g, s, t) with g = gcd(p, a) > 0 and s p + t a = g, for p > 0."""
    r0, r1, s0, s1, t0, t1 = p, abs(a), 1, 0, 0, 1
    while r1:
        q = r0 // r1
        r0, r1 = r1, r0 - q * r1
        s0, s1 = s1, s0 - q * s1
        t0, t1 = t1, t0 - q * t1
    return r0, s0, t0 if a > 0 else -t0


def _reduce(basis: dict[int, dict[int, int]], vector) -> tuple[tuple[int, int], ...]:
    """The canonical remainder of ``vector`` modulo the basis lattice.

    Columns are taken in increasing order and each pivot coefficient is
    cut into [0, pivot); pivot rows touch only later columns, so two
    vectors differ by a lattice element exactly when their remainders are
    equal.
    """
    v = dict(vector)
    out = []
    while v:
        col = min(v)
        row = basis.get(col)
        if row is not None:
            q = v[col] // row[col]
            if q:
                for c, k in row.items():
                    v[c] = v.get(c, 0) - q * k
        a = v.pop(col)
        if a:
            out.append((col, a))
    return tuple(out)


# -- zigzags and mountains -----------------------------------------------------


class Zigzag(Record, frozen=True):
    """An alternating chain w_0 <~ w_1 ~> w_2 <~ ... ~> w_{2n}.

    Peaks sit at odd indices; every arrow is a (possibly multi-step)
    contraction, verified by :func:`verify_zigzag`.
    """

    __slots__ = ("entries",)

    def __init__(self, entries: tuple[tuple[str, ...], ...]):
        self.entries = entries

    @property
    def peak_count(self) -> int:
        return (len(self.entries) - 1) // 2

    @property
    def peaks(self) -> tuple[tuple[str, ...], ...]:
        return self.entries[1::2]


def contracts_to(model: TruncatedModel, word, target) -> bool:
    """Whether word ~>* target through one-step contractions.

    Contractions in disjoint blocks commute, so this holds exactly when the
    word is longer than the target and splits into len(target) consecutive
    blocks, block r having target[r] among its values.
    """
    word, target = tuple(word), tuple(target)
    if len(word) <= len(target):
        return False
    table = _derivations(model, check_word(model, word))
    ends = {0}
    for letter in target:
        ends = {j + 1 for i in ends for j in range(i, len(word))
                if letter in table[(i, j)]}
    return len(word) in ends


def verify_zigzag(model: TruncatedModel, zigzag: Zigzag) -> None:
    entries = zigzag.entries
    if len(entries) < 3 or len(entries) % 2 == 0:
        raise WordError("a zigzag has entries w_0..w_{2n} with n >= 1")
    for w in entries:
        check_word(model, w)
    for k in range(0, len(entries) - 1, 2):
        valley, peak = entries[k], entries[k + 1]
        if not contracts_to(model, peak, valley):
            raise WordError(f"claimed contraction {peak} ~> {valley} fails")
        after = entries[k + 2]
        if not contracts_to(model, peak, after):
            raise WordError(f"claimed contraction {peak} ~> {after} fails")


def mountain_from_zigzag(model: TruncatedModel, zigzag: Zigzag) -> tuple[str, ...]:
    """Concatenate the peaks, alternately inverted, into one word.

    With n peaks the word is w_1 w_3^{-1} w_5 ... ; for even n the final
    valley w_{2n} is appended after the inverted last peak.  The result w
    satisfies w ~>* w_0 and w ~>* w_{2n}, so the values of both ends are
    among the values of w; this postcondition is checked.
    """
    if model.mode != SYMMETRIC:
        raise WordError("mountains from zigzags need a symmetric model")
    verify_zigzag(model, zigzag)
    parts = []
    for idx, peak in enumerate(zigzag.peaks):
        parts.append(peak if idx % 2 == 0 else word_inverse(model, peak))
    if zigzag.peak_count % 2 == 0:
        parts.append(zigzag.entries[-1])
    word = tuple(chain.from_iterable(parts))
    ends = values(model, zigzag.entries[0]) | values(model, zigzag.entries[-1])
    got = values(model, word)
    if not ends <= got:
        raise WordError("zigzag postcondition failed: end values not reached")
    return word


def _zigzag_neighbors(model, word, cap):
    out = contractions(model, word)
    if len(word) < cap:
        for j in range(len(word)):
            for f, g in model.products_to(word[j]):
                out.append(word[:j] + (f, g) + word[j + 1 :])
    return out


ZIGZAG_NODE_CAP = 100_000  # words discovered before the search stops expanding


def find_zigzag(model: TruncatedModel, f: str, g: str, peak_cap: int) -> Zigzag | None:
    """Breadth-first search in the contraction graph from (f) to (g).

    Expansion steps replace a letter by a stored spine with that product,
    keeping words at length <= peak_cap.  The discovered path is compressed
    into an alternating zigzag.  Once ``ZIGZAG_NODE_CAP`` words are known
    no more are expanded, so a None under the cap is not exhaustive.
    """
    start, goal = (f,), (g,)
    if start == goal:
        raise WordError("zigzag search needs distinct ends")
    parents: dict[tuple, tuple | None] = {start: None}
    queue = deque((start,))
    found = None
    while queue and found is None:
        w = queue.popleft()
        for nb in _zigzag_neighbors(model, w, peak_cap):
            if nb in parents:
                continue
            parents[nb] = w
            if nb == goal:
                found = nb
                break
            if len(parents) < ZIGZAG_NODE_CAP:
                queue.append(nb)
    if found is None:
        return None
    path = []
    node = found
    while node is not None:
        path.append(node)
        node = parents[node]
    path.reverse()
    entries = [path[0]]
    for k in range(1, len(path) - 1):
        prev, cur, nxt = len(path[k - 1]), len(path[k]), len(path[k + 1])
        if (prev < cur > nxt) or (prev > cur < nxt):
            entries.append(path[k])
    entries.append(path[-1])
    return Zigzag(tuple(entries))


def mountain(model: TruncatedModel, f: str, g: str,
             max_len: int) -> tuple[str, ...] | None:
    """The least word of length <= max_len with both f and g among its values.

    For f = g the degenerate word (id, f) does the job.  Otherwise such a
    word is a mean word whose values include f and g, so :func:`_scan`
    with the one class (f, g) decides: the witness is the shortest such
    word, first in :func:`word_sort_key` order, re-checked with
    :func:`values`, and an absent verdict is exhaustive at the bound.
    Each length builds the word sets of f and g, and those they are built
    from, only when both are reachable there.  A model with involution
    faults is refused with :class:`WordError`, as in :func:`mean_scan`.
    """
    _refuse_involution_faults(model)
    ef, eg = model.edge(f), model.edge(g)
    if (ef.src, ef.tgt) != (eg.src, eg.tgt):
        raise WordError("mountain needs parallel edges")
    if max_len < 2:
        raise WordError("mountain search needs max_len >= 2")
    if f == g:
        return (identity_name(ef.src), f)
    return _scan(model, max_len, ((f, g),)).witness


# -- presentation of the fundamental groupoid ----------------------------------


class Presentation(Record, frozen=True):
    """Generators and relations of the fundamental groupoid.

    One generator per involution orbit of nondegenerate edges (the lex-least
    name is the chosen orientation); one relation per triangle orbit, the
    three-letter loop h^ g f, plus a square relation per self-inverse edge.
    Relation letters use the trailing ``^`` convention for inverses.
    """

    __slots__ = ("generators", "relations")

    def __init__(self, generators: tuple[str, ...],
                 relations: tuple[tuple[str, ...], ...]):
        self.generators = generators
        self.relations = relations

    def format(self) -> str:
        gens = " ".join(self.generators)
        rels = ", ".join(" ".join(r) for r in self.relations)
        return f"< {gens} | {rels} >" if rels else f"< {gens} | >"


def tau_presentation(model: TruncatedModel) -> Presentation:
    if model.mode != SYMMETRIC:
        raise WordError("presentations need a symmetric model")
    pairs = model.edge_pairs()
    generators = tuple(p[0] for p in pairs)
    oriented = {}
    for p in pairs:
        oriented[p[0]] = p[0]
        if len(p) == 2:
            oriented[p[1]] = p[0] + "^"

    def render(edge):
        token = oriented.get(edge)
        if token is None:
            raise WordError(f"edge {edge} has no orientation (identity in relation?)")
        return token

    def invert(edge):
        return render(model.inv(edge))

    relations = []
    for p in pairs:
        if len(p) == 1:
            relations.append((p[0], p[0]))
    for f, g, h in model.triangle_orbits():
        relations.append((invert(h), render(g), render(f)))
    return Presentation(generators, tuple(relations))


# -- bounded reflection ----------------------------------------------------------


class ReflectResult(Record):
    __slots__ = ("model", "bound", "identified", "rounds", "complete_at_bound")

    def __init__(self, model: TruncatedModel, bound: int,
                 identified: tuple[tuple[str, str], ...], rounds: int,
                 complete_at_bound: bool = True):
        self.model = model
        self.bound = bound
        self.identified = identified
        self.rounds = rounds
        self.complete_at_bound = complete_at_bound


def reflect_bounded(model: TruncatedModel, max_len: int) -> ReflectResult:
    """Quotient by discovered mean words until the bounded scan is clean.

    Each round merges the value set of the first mean word found at the
    bound (together with the inverse edges), then resolves any spine
    collisions the merge creates by further identification: a collision
    (f,g) -> {h, h'} is exactly a length-2 mean word, so h and h' merge.
    The quotient model names these collisions itself, degenerate spines
    with another long edge included.
    The returned model passes ``mean_scan`` at the same bound; the flag
    records that embeddability is only known up to that bound.
    """
    if model.mode != SYMMETRIC:
        raise WordError("reflection needs a symmetric model")
    current = model
    identified: dict[str, str] = {}
    rounds = 0
    while True:
        scan = mean_scan(current, max_len)
        if scan.witness is None:
            break
        rounds += 1
        current, step = _merge_parallel_edges(current, scan.witness_values)
        for old, new in step.items():
            if old != new:
                identified[old] = new
        for old in list(identified):
            identified[old] = step.get(identified[old], identified[old])
    return ReflectResult(current, max_len, tuple(sorted(identified.items())), rounds)


def _merge_parallel_edges(model, names):
    parent = {e: e for e in model.edges}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union_pair(a, b):
        for x, y in ((a, b), (model.inv(a), model.inv(b))):
            rx, ry = sorted((find(x), find(y)))
            parent[ry] = rx

    base = sorted(names)
    for other in base[1:]:
        union_pair(base[0], other)
    # A spine with two products is a length-2 mean word, so its products
    # merge too; repeat until the quotient has no such spine.
    merged, rename = _quotient(model, find)
    while merged._spine_faults:
        for t, product in merged._spine_faults:
            union_pair(t[2], product)
        merged, rename = _quotient(model, find)
    report = merged.validate()
    if not report.ok:
        raise WordError(f"merge left an invalid model: {report.summary()}")
    return merged, rename


def _quotient(model, find):
    """The quotient of ``model`` by the edge classes of ``find``, and the
    map from each edge to its class's name there."""
    classes: dict[str, list[str]] = {}
    for e in sorted(model.edges):
        classes.setdefault(find(e), []).append(e)

    # Pick representatives pairwise so merged involution pairs stay named
    # (r, r^): the partner class of a class with rep r gets rep inv(r).
    assigned: dict[str, str] = {}
    for key in sorted(classes):
        if key in assigned:
            continue
        members = classes[key]
        ids = [m for m in members if model.edge(m).is_identity]
        r = ids[0] if ids else members[0]
        assigned[key] = r
        partner_key = find(model.inv(members[0]))
        if partner_key not in assigned:
            assigned[partner_key] = model.inv(r)
    rename = {m: assigned[find(m)] for m in model.edges}

    edges = []
    for members in sorted(classes.values()):
        r = rename[members[0]]
        first = model.edge(members[0])
        for m in members[1:]:
            e = model.edge(m)
            if (e.src, e.tgt) != (first.src, first.tgt):
                raise WordError(f"refused to merge non-parallel edges {members}")
        edges.append(Edge(r, first.src, first.tgt,
                          inv=rename[model.inv(members[0])],
                          is_identity=any(model.edge(m).is_identity
                                          for m in members)))
    triangles = {(rename[f], rename[g], rename[h]) for f, g, h in model.triangles}
    return TruncatedModel(SYMMETRIC, model.objects, edges, triangles), rename


# -- the single-axiom pregroup probe --------------------------------------------


class PregroupReport(Record):
    __slots__ = ("ok", "counterexample", "left", "right")

    def __init__(self, ok: bool,
                 counterexample: tuple[str, str, str] | None = None,
                 left: str | None = None, right: str | None = None):
        self.ok = ok
        self.counterexample = counterexample
        self.left = left    # (ab)c when defined
        self.right = right  # a(bc) when defined


def pregroup_axiom_check(model: TruncatedModel) -> PregroupReport:
    """Scan triples with ab and bc defined for an associativity fault.

    Reports the first triple (a, b, c), in lexicographic order over
    nonidentity edges, where exactly one of (ab)c, a(bc) is defined or
    both are defined and differ.  Triples with an identity entry can
    never violate the axiom and are skipped.
    """
    for a in model.nonidentity_edges():
        prods_a = model.products_from(a)
        for b in sorted(prods_a):
            if model.is_identity(b):
                continue
            ab = prods_a[b]
            prods_b = model.products_from(b)
            for c in sorted(prods_b):
                if model.is_identity(c):
                    continue
                bc = prods_b[c]
                left = model.products_from(ab).get(c)
                right = prods_a.get(bc)
                if left != right:
                    return PregroupReport(False, (a, b, c), left, right)
    return PregroupReport(True)
