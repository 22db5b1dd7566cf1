"""Two-truncated models of partial groupoids.

A :class:`TruncatedModel` stores objects, edges, and the nondegenerate
triangles of a partial groupoid (symmetric mode) or of an edgy simplicial
set (simplicial mode).  A triangle ``(f, g, h)`` records a 2-simplex with
spine ``(f, g)`` and long edge ``h``, i.e. the multiplication fact
``h = g after f``.  Degenerate triangles are never stored, but the one
product table, built by the constructor and read by :meth:`mult` and
:meth:`products_from`, holds their products beside the stored ones:

* ``mult(id, f) = f`` and ``mult(f, id) = f`` in both modes,
* ``mult(f, f~) = id_src(f)`` and ``mult(f~, f) = id_tgt(f)`` in
  symmetric mode, where ``f~`` is the involution partner of ``f``.

The constructor closes a symmetric triangle table under the six vertex
permutations of a triangle (when the involution is valid), once per
orbit, and, in both modes, drops each triple whose degenerate spine gives
its product, a whole orbit at a time when the table is closed.  The
model invariant ("spininess") is that the partial map ``(f, g) -> h``
over stored triangles plus the implicit degenerates is single valued.
It and the involution are checked by :meth:`TruncatedModel.validate`,
which reports violations instead of raising, so a deliberately broken
model (e.g. the glued model of an incompatible triangulation pair) can
be inspected.

All iteration over objects, edges, and triangles is in sorted order, so
every operation in this package is deterministic.
"""
from __future__ import annotations

from .records import Record

SYMMETRIC = "symmetric"
SIMPLICIAL = "simplicial"

IDENTITY_PREFIX = "1@"


class ModelError(ValueError):
    """Structurally malformed model data (duplicate names, dangling refs)."""


class HomError(ValueError):
    """Invalid map data between models."""


def word_sort_key(word):
    """Canonical order on same-length words: positively oriented first.

    Words with fewer inverse-marked letters come first, ties broken
    lexicographically, so spine-style witnesses beat their inverted
    variants.  Triangles, read as words (f, g, h), use the same order.
    """
    return (sum(1 for t in word if t.endswith("^")), word)


def identity_name(obj: str) -> str:
    return IDENTITY_PREFIX + obj


class Edge(Record, frozen=True):
    """A 1-simplex.  ``inv`` is the involution partner (symmetric mode only)."""

    __slots__ = ("name", "src", "tgt", "inv", "is_identity")

    def __init__(self, name: str, src: str, tgt: str, inv: str | None = None,
                 is_identity: bool = False):
        self.name = name
        self.src = src
        self.tgt = tgt
        self.inv = inv
        self.is_identity = is_identity


def orbit_images(tri: tuple[str, str, str], inv) -> tuple[tuple[str, str, str], ...]:
    """The six images of a triangle under the vertex permutations.

    For a triangle with spine ``(f, g)`` and long edge ``h`` the images are
    read off by permuting the three vertices and taking the induced edges;
    ``inv`` maps an edge name to its involution partner.
    """
    f, g, h = tri
    return (
        (f, g, h),
        (g, inv(h), inv(f)),
        (inv(h), f, inv(g)),
        (inv(f), h, g),
        (h, inv(g), f),
        (inv(g), inv(f), inv(h)),
    )


class Violation(Record, frozen=True):
    __slots__ = ("kind", "detail", "witness")

    def __init__(self, kind: str, detail: str, witness: tuple = ()):
        self.kind = kind
        self.detail = detail
        self.witness = witness

    def __str__(self) -> str:
        return f"{self.kind}: {self.detail}"


class ValidationReport(Record):
    __slots__ = ("ok", "violations")

    def __init__(self, ok: bool, violations: list[Violation] | None = None):
        self.ok = ok
        self.violations = [] if violations is None else violations

    def __bool__(self) -> bool:
        return self.ok

    def summary(self) -> str:
        if self.ok:
            return "pass"
        return "; ".join(str(v) for v in self.violations)


class TruncatedModel:
    """A finite partial groupoid (or edgy simplicial set) at truncation level 2.

    A model is immutable after construction.  Its product table is built by
    the constructor; its sorted nonidentity edges and its products-to table
    are built on first use and kept.  A symmetric table with a valid
    involution is closed one orbit at a time, each orbit once however many
    of its images are written, and ``_orbits`` keeps one image of each
    stored orbit (each stored triangle in simplicial mode or with
    involution faults, where nothing is closed).
    """

    def __init__(self, mode, objects, edges, triangles):
        if mode not in (SYMMETRIC, SIMPLICIAL):
            raise ModelError(f"unknown mode {mode!r}")
        self.mode = mode
        self.objects = tuple(sorted(objects))
        if len(set(self.objects)) != len(self.objects):
            raise ModelError("duplicate object names")
        edges = list(edges)
        self.edges = {e.name: e for e in edges}
        if len(self.edges) != len(edges):
            raise ModelError("duplicate edge names")
        written = sorted({tuple(t) for t in triangles})
        self._involution_faults = self._check_structure(written)
        closed = mode == SYMMETRIC and not self._involution_faults
        # An orbit is degenerate as a whole, so one image decides it.
        seen, orbits, kept = set(), [], []
        for t in written:
            if t not in seen:
                images = orbit_images(t, self.inv) if closed else (t,)
                seen.update(images)
                if self._degenerate_value(t[0], t[1]) != t[2]:
                    orbits.append(t)
                    kept += images
        self._orbits = tuple(orbits)
        self.triangles = frozenset(kept)
        out = {o: [] for o in self.objects}
        for name in sorted(self.edges):
            out[self.edges[name].src].append(name)
        self._out_edges = {o: tuple(v) for o, v in out.items()}
        self._build_product_tables()
        self._products_to = None
        self._nonidentity = None

    # -- construction helpers -------------------------------------------------

    @classmethod
    def symmetric(cls, objects, edge_pairs, triangles=(), self_inverse=()):
        """Build a symmetric model from one edge per involution pair.

        ``edge_pairs`` holds ``(name, src, tgt)`` triples; each edge gets a
        fresh partner named ``name + '^'`` unless listed in ``self_inverse``
        (such edges must be loops).  Identity edges are created per object.
        The constructor closes the triangle table under the vertex
        permutations and drops the degenerate-consistent triples.
        """
        self_inverse = set(self_inverse)
        edges = [
            Edge(identity_name(o), o, o, inv=identity_name(o), is_identity=True)
            for o in objects
        ]
        for name, src, tgt in edge_pairs:
            if name in self_inverse:
                if src != tgt:
                    raise ModelError(f"self-inverse edge {name} is not a loop")
                edges.append(Edge(name, src, tgt, inv=name))
            else:
                edges.append(Edge(name, src, tgt, inv=name + "^"))
                edges.append(Edge(name + "^", tgt, src, inv=name))
        return cls(SYMMETRIC, objects, edges, triangles)

    @classmethod
    def simplicial(cls, objects, edge_triples, triangles=()):
        """Build a simplicial model; edges carry no involution.  The
        constructor drops the degenerate-consistent triples."""
        edges = [
            Edge(identity_name(o), o, o, is_identity=True) for o in objects
        ]
        edges.extend(Edge(name, src, tgt) for name, src, tgt in edge_triples)
        return cls(SIMPLICIAL, objects, edges, triangles)

    # -- structural checks (raise) --------------------------------------------

    def _check_structure(self, triangles):
        """Raise on malformed references; return involution faults.

        Duplicate names, dangling references, and missing identities are
        hard errors; ``triangles`` are checked in the order given.  A broken
        involution leaves the model constructible (with its triangle table
        not closed) so that validate() can report the fault as a
        violation, but most symmetric operations refuse to run on such a
        model.
        """
        objset = set(self.objects)
        ids_seen = {}
        faults = []
        for e in self.edges.values():
            if e.src not in objset or e.tgt not in objset:
                raise ModelError(f"edge {e.name} has dangling endpoint")
            if e.is_identity:
                if e.src != e.tgt:
                    raise ModelError(f"identity edge {e.name} is not a loop")
                if e.src in ids_seen:
                    raise ModelError(f"two identity edges on object {e.src}")
                ids_seen[e.src] = e.name
            if self.mode == SYMMETRIC:
                if e.inv is None or e.inv not in self.edges:
                    raise ModelError(f"edge {e.name} lacks an inverse")
                partner = self.edges[e.inv]
                if partner.inv != e.name:
                    faults.append(Violation(
                        "involution-fault",
                        f"inverse of inverse of {e.name} is {partner.inv}",
                        witness=(e.name,)))
                if partner.src != e.tgt or partner.tgt != e.src:
                    faults.append(Violation(
                        "involution-fault",
                        f"inverse of {e.name} has wrong endpoints",
                        witness=(e.name,)))
                if e.is_identity and e.inv != e.name:
                    faults.append(Violation(
                        "involution-fault",
                        f"identity {e.name} must be self-inverse",
                        witness=(e.name,)))
                if e.inv == e.name and not e.is_identity and e.src != e.tgt:
                    faults.append(Violation(
                        "involution-fault",
                        f"self-inverse edge {e.name} is not a loop",
                        witness=(e.name,)))
            else:
                if e.inv is not None and not e.is_identity:
                    raise ModelError("simplicial edges carry no inverse")
        missing = objset - set(ids_seen)
        if missing:
            raise ModelError(f"objects without identity edge: {sorted(missing)}")
        for f, g, h in triangles:
            for name in (f, g, h):
                if name not in self.edges:
                    raise ModelError(f"triangle references unknown edge {name}")
            ef, eg, eh = self.edges[f], self.edges[g], self.edges[h]
            if ef.tgt != eg.src or eh.src != ef.src or eh.tgt != eg.tgt:
                raise ModelError(f"triangle ({f},{g},{h}) has mismatched endpoints")
        return tuple(faults)

    # -- basic queries ---------------------------------------------------------

    def edge(self, name: str) -> Edge:
        try:
            return self.edges[name]
        except KeyError:
            raise ModelError(f"unknown edge {name!r}") from None

    def inv(self, name: str) -> str:
        e = self.edge(name)
        if e.inv is None:
            raise ModelError(f"edge {name} has no inverse (simplicial mode)")
        return e.inv

    def is_identity(self, name: str) -> bool:
        return self.edge(name).is_identity

    def nonidentity_edges(self) -> tuple[str, ...]:
        if self._nonidentity is None:
            self._nonidentity = tuple(sorted(n for n, e in self.edges.items()
                                             if not e.is_identity))
        return self._nonidentity

    def edge_pairs(self) -> tuple[tuple[str, ...], ...]:
        """Involution orbits of nondegenerate edges, canonically oriented."""
        if self.mode != SYMMETRIC:
            raise ModelError("edge pairs need a symmetric model")
        pairs = []
        for name in self.nonidentity_edges():
            partner = self.inv(name)
            if name <= partner:
                pairs.append((name,) if partner == name else (name, partner))
        return tuple(pairs)

    def out_edges(self, obj: str) -> tuple[str, ...]:
        return self._out_edges[obj]

    def composable(self, f: str, g: str) -> bool:
        return self.edge(f).tgt == self.edge(g).src

    def _degenerate_value(self, f: str, g: str) -> str | None:
        """Product of a degenerate spine, or None if (f, g) is nondegenerate."""
        ef, eg = self.edge(f), self.edge(g)
        if ef.tgt != eg.src:
            return None
        if ef.is_identity:
            return g
        if eg.is_identity:
            return f
        if self.mode == SYMMETRIC and eg.name == ef.inv:
            return identity_name(ef.src)
        return None

    def mult(self, f: str, g: str) -> str | None:
        """The edge of the 2-simplex with spine (f, g), if there is one."""
        if not self.composable(f, g):
            raise ModelError(f"edges {f} and {g} are not composable")
        return self._rows[f].get(g)

    def products_from(self, e: str) -> dict[str, str]:
        """All defined products with left factor ``e``, degenerates included."""
        return self._rows.get(e, {})

    def products_to(self, h: str) -> tuple[tuple[str, str], ...]:
        """Stored spines whose product is ``h`` (degenerate spines excluded)."""
        if self._products_to is None:
            table = {}
            for f, g, val in sorted(self.triangles):
                if self._rows[f][g] == val:
                    table.setdefault(val, []).append((f, g))
            self._products_to = {k: tuple(v) for k, v in table.items()}
        return self._products_to.get(h, ())

    def _build_product_tables(self):
        """The product table: one row ``{g: h}`` per left factor ``f``.

        Stored spines go in first, in sorted order, so a spine with two
        long edges keeps the least one (collisions surface in validate());
        the degenerate products follow and never displace a stored one.
        """
        rows = {name: {} for name in self.edges}
        for f, g, h in sorted(self.triangles):
            rows[f].setdefault(g, h)
        for name, e in self.edges.items():
            row = rows[name]
            if e.is_identity:
                for g in self._out_edges[e.src]:
                    row.setdefault(g, g)
            else:
                row.setdefault(identity_name(e.tgt), name)
                if self.mode == SYMMETRIC and self.edges[e.inv].src == e.tgt:
                    row.setdefault(e.inv, identity_name(e.src))
        self._rows = rows

    # -- validation ------------------------------------------------------------

    def validate(self) -> ValidationReport:
        """Check the involution and spininess.

        On a closed table spininess implies two-sided cancellation: a fault
        ``mult(f, g) = mult(f, g') = h`` puts the two products g and g' on
        the spine ``(f~, h)`` of the orbit images.
        """
        violations = list(self._involution_faults)
        for t, product in self._spine_faults():
            f, g, h = t
            if self._degenerate_value(f, g) is None:
                violations.append(Violation(
                    "spine-collision",
                    f"spine ({f},{g}) has two long edges {product} and {h}",
                    witness=((f, g, product), t),
                ))
            else:
                violations.append(Violation(
                    "spine-collision",
                    f"triangle ({f},{g},{h}) collides with the degenerate "
                    f"spine ({f},{g}) -> {product}",
                    witness=(t,),
                ))
        return ValidationReport(not violations, violations)

    def _spine_faults(self):
        """Stored triangles whose spine is degenerate or already has another
        product, in sorted order, each with that product.

        The product is the degenerate value, or else the spine's least
        stored long edge (the one ``mult`` returns).
        """
        for t in sorted(self.triangles):
            f, g, h = t
            product = self._degenerate_value(f, g)
            if product is None and self._rows[f][g] != h:
                product = self._rows[f][g]
            if product is not None:
                yield t, product

    # -- equality / rendering ---------------------------------------------------

    def _key(self):
        return (
            self.mode,
            self.objects,
            tuple(sorted((e.name, e.src, e.tgt, e.inv, e.is_identity)
                         for e in self.edges.values())),
            tuple(sorted(self.triangles)),
        )

    def __eq__(self, other):
        return isinstance(other, TruncatedModel) and self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        return (f"TruncatedModel({self.mode}, {len(self.objects)} objects, "
                f"{len(self.edges)} edges, {len(self.triangles)} triangles)")

    def counts(self) -> dict[str, int]:
        nondeg = len(self.nonidentity_edges())
        return {
            "objects": len(self.objects),
            "edges": nondeg,
            "triangles": len(self.triangles),
        }

    def triangle_orbits(self) -> tuple[tuple[str, str, str], ...]:
        """Canonical representatives of the triangle orbits (symmetric mode).

        The representative is the positively oriented image where possible:
        fewest inverse-marked names, ties broken lexicographically.  It is
        taken once per orbit the constructor kept.
        """
        if self.mode != SYMMETRIC:
            return tuple(sorted(self.triangles))
        reps = {min(orbit_images(t, self.inv), key=word_sort_key)
                for t in self._orbits}
        return tuple(sorted(reps))


# -- derived constructions -----------------------------------------------------


def symmetrize(model: TruncatedModel) -> TruncatedModel:
    """Add a fresh inverse per non-identity edge and orbit-close the triangles.

    Raises :class:`SpininessError` when the closure breaks spininess (the
    witnesses ride on the exception).
    """
    if model.mode != SIMPLICIAL:
        raise ModelError("symmetrize expects a simplicial model")
    pairs = [(n, model.edge(n).src, model.edge(n).tgt)
             for n in model.nonidentity_edges()]
    result = TruncatedModel.symmetric(model.objects, pairs, model.triangles)
    report = result.validate()
    if not report.ok:
        raise SpininessError(report)
    return result


class SpininessError(ModelError):
    def __init__(self, report: ValidationReport):
        super().__init__(f"symmetrization is not spiny: {report.summary()}")
        self.report = report


def nerve_truncation(cat, mode: str = SYMMETRIC) -> TruncatedModel:
    """The 2-truncated nerve of a finite category.

    Edges are the morphisms, triangles are the composable nonidentity pairs
    with their composite.  Symmetric mode requires a groupoid.
    """
    if mode == SYMMETRIC and not cat.is_groupoid():
        raise ModelError("symmetric nerve needs a groupoid")
    objects = cat.objects
    triangles = [
        (f, g, cat.compose(g, f))
        for f in cat.nonidentity_morphisms()
        for g in cat.nonidentity_morphisms()
        if cat.morphism(f).tgt == cat.morphism(g).src
    ]
    if mode == SIMPLICIAL:
        edge_triples = [(m, cat.morphism(m).src, cat.morphism(m).tgt)
                        for m in cat.nonidentity_morphisms()]
        return TruncatedModel.simplicial(objects, edge_triples, triangles)
    edges = [Edge(identity_name(o), o, o, inv=identity_name(o), is_identity=True)
             for o in objects]
    for m in cat.nonidentity_morphisms():
        mor = cat.morphism(m)
        edges.append(Edge(m, mor.src, mor.tgt, inv=cat.inverse(m)))
    model = TruncatedModel(SYMMETRIC, objects, edges, triangles)
    report = model.validate()
    if not report.ok:
        raise ModelError(f"nerve did not validate: {report.summary()}")
    return model


# -- maps of models --------------------------------------------------------------


class Hom(Record, frozen=True):
    """A structure-preserving map between models of the same mode.

    ``vertices`` and ``edges`` are the two maps as dicts, built once per
    hom and shared, so callers must not mutate them; equality, hashing
    and ``repr`` stay on the tuple fields.
    """

    _fields = ("vertex_map", "edge_map")
    __slots__ = _fields + ("vertices", "edges")

    def __init__(self, vertex_map: tuple[tuple[str, str], ...],
                 edge_map: tuple[tuple[str, str], ...]):
        self.vertex_map = vertex_map
        self.edge_map = edge_map
        self.vertices = dict(vertex_map)
        self.edges = dict(edge_map)

    @classmethod
    def of(cls, vertex_map: dict, edge_map: dict) -> "Hom":
        return cls(tuple(sorted(vertex_map.items())),
                   tuple(sorted(edge_map.items())))

    def vertex(self, obj: str) -> str:
        return self.vertices[obj]

    def edge(self, name: str) -> str:
        return self.edges[name]

    def is_identity(self) -> bool:
        return (all(a == b for a, b in self.vertex_map)
                and all(a == b for a, b in self.edge_map))


def identity_hom(model: TruncatedModel) -> Hom:
    return Hom.of({o: o for o in model.objects},
                  {e: e for e in model.edges})


def verify_hom(source: TruncatedModel, target: TruncatedModel, hom: Hom) -> bool:
    """Full check that ``hom`` preserves endpoints, identities, inverses,
    and sends every source triangle to a triangle (stored or degenerate)."""
    vmap, emap = hom.vertices, hom.edges
    if set(vmap) != set(source.objects) or set(emap) != set(source.edges):
        return False
    targets = set(target.objects)
    if any(img not in targets for img in vmap.values()):
        return False
    for name, img in emap.items():
        if img not in target.edges:
            return False
        e, t = source.edge(name), target.edge(img)
        if t.src != vmap[e.src] or t.tgt != vmap[e.tgt]:
            return False
        if e.is_identity and not t.is_identity:
            return False
        if source.mode == SYMMETRIC and emap[e.inv] != t.inv:
            return False
    for f, g, h in source.triangles:
        if target.mult(emap[f], emap[g]) != emap[h]:
            return False
    return True


def iter_homs(source: TruncatedModel, target: TruncatedModel):
    """Backtracking enumeration of all homs, in a deterministic order.

    Vertices are assigned first (sorted objects over sorted candidates),
    then one edge per involution pair; triangle constraints are checked as
    soon as all three components are assigned.
    """
    if source.mode != target.mode:
        raise HomError("hom enumeration needs models of the same mode")
    src_objects = list(source.objects)
    if source.mode == SYMMETRIC:
        units = [p[0] for p in source.edge_pairs()]
    else:
        units = list(source.nonidentity_edges())

    assign_rank = {name: i for i, name in enumerate(units)}

    def unit_of(comp):
        if source.mode == SYMMETRIC and comp not in assign_rank:
            return source.inv(comp)
        return comp

    tri_watch = {name: [] for name in units}
    leftover_triangles = []
    for tri in sorted(source.triangles):
        parts = {unit_of(c) for c in tri if not source.is_identity(c)}
        if not parts:
            leftover_triangles.append(tri)
            continue
        last = max(parts, key=assign_rank.__getitem__)
        tri_watch[last].append(tri)

    target_edges_by_ends = {}
    for name in sorted(target.edges):
        e = target.edges[name]
        target_edges_by_ends.setdefault((e.src, e.tgt), []).append(name)

    def edge_candidates(name, vmap):
        e = source.edge(name)
        return target_edges_by_ends.get((vmap[e.src], vmap[e.tgt]), ())

    def assign_edges(idx, vmap, emap):
        if idx == len(units):
            for f, g, h in leftover_triangles:
                if target.mult(emap[f], emap[g]) != emap[h]:
                    return
            yield Hom.of(vmap, emap)
            return
        name = units[idx]
        e = source.edge(name)
        for cand in edge_candidates(name, vmap):
            if source.mode == SYMMETRIC and e.inv == name \
                    and target.inv(cand) != cand:
                continue
            emap[name] = cand
            if source.mode == SYMMETRIC:
                emap[e.inv] = target.inv(cand)
            ok = True
            for tri in tri_watch[name]:
                f, g, h = tri
                if target.mult(emap[f], emap[g]) != emap[h]:
                    ok = False
                    break
            if ok:
                yield from assign_edges(idx + 1, vmap, emap)
            if source.mode == SYMMETRIC and e.inv != name:
                del emap[e.inv]
            del emap[name]

    def assign_vertices(idx, vmap):
        if idx == len(src_objects):
            emap = {identity_name(o): identity_name(vmap[o]) for o in src_objects}
            yield from assign_edges(0, vmap, emap)
            return
        obj = src_objects[idx]
        for cand in target.objects:
            vmap[obj] = cand
            yield from assign_vertices(idx + 1, vmap)
            del vmap[obj]

    yield from assign_vertices(0, {})


def enumerate_homs(source: TruncatedModel, target: TruncatedModel) -> tuple[Hom, ...]:
    return tuple(iter_homs(source, target))
