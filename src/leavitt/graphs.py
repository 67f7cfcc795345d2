"""Finite directed graphs with symbolic infinite-edge bundles, and the
vertex-set predicates used by the classification theorems.

A bundle stands for countably many parallel edges between one source and one
target; a vertex sourcing a bundle is an infinite emitter.  Individual bundle
edges are addressed as ``(bundle_id, index)``.  Reachability uses u >= v to
mean "there is a path from u to v"; the root R(V) collects everything that
reaches V and the tree T(V) everything V reaches.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, reduce
from operator import or_
from typing import Iterable, Iterator, Optional, Union

from .errors import InputError

VertexId = str
EdgeRef = Union[str, tuple]  # ordinary edge id, or (bundle id, index)


def ref_str(ref: EdgeRef) -> str:
    if isinstance(ref, tuple):
        return f"{ref[0]}[{ref[1]}]"
    return ref


def is_bundle_ref(ref: EdgeRef) -> bool:
    return isinstance(ref, tuple)


class _Analysis:
    """Structures derived from one graph, each computed on first use.  A graph
    never changes after ``__init__``, so no entry is ever invalidated."""

    __slots__ = (
        "cycles",
        "first_cycles",
        "successors",
        "predecessors",
        "edge_paths",
        "atoms",
        "breaking",
        "quotients",
        "lattice",
        "cycle_classes",
        "h_facts",
    )

    def __init__(self):
        self.cycles = {}  # bundle_sample -> tuple of cycles, in enumeration order
        self.first_cycles = {}  # (touch, sample, exclude) -> _first_cycle's answer
        self.successors = None  # v -> frozenset of the vertices v emits into
        self.predecessors = None  # v -> frozenset of the vertices emitting into v
        self.edge_paths = {}  # edge ref -> its one-edge Path
        self.atoms = {}  # expression name -> its unit Monomial, filled by graphio
        self.breaking = {}  # hereditary saturated H -> B_H
        self.quotients = {}  # (H, S) -> ideals.QuotientGraph, filled by ideals
        self.lattice = None  # reachability as bitmasks, see _lattice
        self.cycle_classes = {}  # (cycle, V) -> _classify_cycle's answer
        self.h_facts = {}  # proper H -> classify._HFacts, filled by classify


class Graph:
    """Immutable finite graph.  All ids share one namespace."""

    def __init__(self, vertices: Iterable[str], edges=None, bundles=None):
        self.vertex_list = tuple(sorted(vertices))
        self.vertices = frozenset(self.vertex_list)
        self.edges = dict(edges or {})
        self.bundles = dict(bundles or {})
        if len(self.vertex_list) != len(self.vertices):
            raise InputError("duplicate vertex id")
        seen = set(self.vertices)
        for name, table in (("edge", self.edges), ("bundle", self.bundles)):
            for eid, (src, tgt) in table.items():
                if eid in seen:
                    raise InputError(f"duplicate id {eid!r} ({name})")
                seen.add(eid)
                if src not in self.vertices or tgt not in self.vertices:
                    raise InputError(f"{name} {eid!r} references unknown vertex")
        self._out_edges = {v: [] for v in self.vertex_list}
        self._in_edges = {v: [] for v in self.vertex_list}
        for eid in sorted(self.edges):
            src, tgt = self.edges[eid]
            self._out_edges[src].append(eid)
            self._in_edges[tgt].append(eid)
        self._out_bundles = {v: [] for v in self.vertex_list}
        self._in_bundles = {v: [] for v in self.vertex_list}
        for bid in sorted(self.bundles):
            src, tgt = self.bundles[bid]
            self._out_bundles[src].append(bid)
            self._in_bundles[tgt].append(bid)

    def __eq__(self, other):
        return other is self or (
            isinstance(other, Graph)
            and self.vertices == other.vertices
            and self.edges == other.edges
            and self.bundles == other.bundles
        )

    def __repr__(self):
        return (
            f"Graph({len(self.vertices)} vertices, {len(self.edges)} edges, "
            f"{len(self.bundles)} bundles)"
        )

    @cached_property
    def _analysis(self) -> _Analysis:
        return _Analysis()

    # -- ids and endpoints ------------------------------------------------

    def check_vertices(self, V: Iterable[str]) -> frozenset:
        V = frozenset(V)
        unknown = V - self.vertices
        if unknown:
            raise InputError(f"unknown vertex id(s): {sorted(unknown)}")
        return V

    def has_ref(self, ref: EdgeRef) -> bool:
        if is_bundle_ref(ref):
            return (
                len(ref) == 2
                and ref[0] in self.bundles
                and isinstance(ref[1], int)
                and ref[1] >= 0
            )
        return ref in self.edges

    def src(self, ref: EdgeRef) -> str:
        if is_bundle_ref(ref):
            return self.bundles[ref[0]][0]
        return self.edges[ref][0]

    def tgt(self, ref: EdgeRef) -> str:
        if is_bundle_ref(ref):
            return self.bundles[ref[0]][1]
        return self.edges[ref][1]

    def out_edge_ids(self, v: str) -> list:
        return list(self._out_edges[v])

    def out_bundle_ids(self, v: str) -> list:
        return list(self._out_bundles[v])

    def out_refs(self, v: str, bundle_sample: int = 1) -> list:
        """Outgoing edge refs, with each bundle sampled at indices < bundle_sample."""
        refs: list = list(self._out_edges[v])
        for bid in self._out_bundles[v]:
            refs.extend((bid, i) for i in range(bundle_sample))
        return refs

    def in_refs(self, v: str, bundle_sample: int = 1) -> list:
        refs: list = list(self._in_edges[v])
        for bid in self._in_bundles[v]:
            refs.extend((bid, i) for i in range(bundle_sample))
        return refs

    # -- vertex kinds ------------------------------------------------------

    def is_infinite_emitter(self, v: str) -> bool:
        return bool(self._out_bundles[v])

    def is_sink(self, v: str) -> bool:
        return not self._out_edges[v] and not self._out_bundles[v]

    def is_regular(self, v: str) -> bool:
        return bool(self._out_edges[v]) and not self._out_bundles[v]

    def designated_edge(self, v: str) -> str:
        """The fixed edge orienting the vertex-expansion rewrite at a regular vertex."""
        if not self.is_regular(v):
            raise InputError(f"{v!r} is not a regular vertex")
        return self._out_edges[v][0]  # out lists are kept sorted

    # -- vertex-level adjacency (bundles count once, built once per graph) ---

    def successors(self, v: str) -> frozenset:
        a = self._analysis
        if a.successors is None:
            a.successors = {u: frozenset(map(self.tgt, self.out_refs(u))) for u in self.vertex_list}
        return a.successors[v]

    def predecessors(self, v: str) -> frozenset:
        a = self._analysis
        if a.predecessors is None:
            a.predecessors = {u: frozenset(map(self.src, self.in_refs(u))) for u in self.vertex_list}
        return a.predecessors[v]


class Path:
    """A finite path: the vertex sequence plus the edge refs between them.

    A single-vertex path has no steps.  ``vertices`` always has one more
    entry than ``steps``.

    A value object: equal fields make equal paths, of this class only.  The
    hash is computed on first use and kept.  Paths are immutable by
    convention: no code assigns to a built path, and no ``__setattr__``
    guard enforces it, because one would cost more than the hash saves.
    Pickling rebuilds from the fields, so no hash crosses processes.
    """

    __slots__ = ("vertices", "steps", "_hash")

    def __init__(self, vertices: tuple, steps: tuple):
        self.vertices = vertices
        self.steps = steps
        self._hash = None

    def __eq__(self, other):
        if other.__class__ is not Path:
            return NotImplemented
        return self.vertices == other.vertices and self.steps == other.steps

    def __hash__(self):
        h = self._hash
        if h is None:
            h = self._hash = hash((self.vertices, self.steps))
        return h

    def __repr__(self):
        return f"Path(vertices={self.vertices!r}, steps={self.steps!r})"

    def __reduce__(self):
        return (Path, (self.vertices, self.steps))

    @property
    def start(self) -> str:
        return self.vertices[0]

    @property
    def end(self) -> str:
        return self.vertices[-1]

    def __len__(self):
        return len(self.steps)

    @property
    def is_vertex(self) -> bool:
        return not self.steps

    def concat(self, other: "Path") -> "Path":
        if self.end != other.start:
            raise InputError(
                f"paths do not compose: {self.end!r} != {other.start!r}"
            )
        return Path(self.vertices + other.vertices[1:], self.steps + other.steps)

    def prefix(self, n: int) -> "Path":
        return Path(self.vertices[: n + 1], self.steps[:n])

    def drop_first(self, n: int = 1) -> "Path":
        return Path(self.vertices[n:], self.steps[n:])

    def drop_last(self, n: int = 1) -> "Path":
        if n == 0:
            return self
        return Path(self.vertices[:-n], self.steps[:-n])

    def __str__(self):
        if not self.steps:
            return self.start
        return "".join(ref_str(s) for s in self.steps)


class _PathPair:
    """The value-object body of a pair p.q* of paths, shared by
    ``algebra.Monomial`` and the chen pairs, which add only their own
    methods.

    A value object like ``Path``: equal to pairs of its own class only, a
    hash kept after first use, immutable by convention (no ``__setattr__``
    guard), pickled from its fields.
    """

    __slots__ = ("p", "q", "_hash")

    def __init__(self, p: Path, q: Path):
        self.p = p
        self.q = q
        self._hash = None

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.p == other.p and self.q == other.q

    def __hash__(self):
        h = self._hash
        if h is None:
            h = self._hash = hash((self.p, self.q))
        return h

    def __repr__(self):
        return f"{self.__class__.__name__}(p={self.p!r}, q={self.q!r})"

    def __reduce__(self):
        return (self.__class__, (self.p, self.q))


def vertex_path(v: str) -> Path:
    return Path((v,), ())


def _edge_path(g: Graph, ref: EdgeRef) -> Path:
    """The one-edge path of a ref, built once per graph; checks only that g
    has the ref."""
    paths = g._analysis.edge_paths
    p = paths.get(ref)
    if p is None:
        if not g.has_ref(ref):
            raise InputError(f"unknown edge ref {ref_str(ref)!r}")
        p = paths[ref] = Path((g.src(ref), g.tgt(ref)), (ref,))
    return p


def make_path(g: Graph, start: str, steps: Iterable[EdgeRef]) -> Path:
    """Build a validated path from a start vertex and edge refs."""
    g.check_vertices([start])
    vertices = [start]
    out_steps = []
    for ref in steps:
        e = _edge_path(g, ref)
        if e.start != vertices[-1]:
            raise InputError(
                f"step {ref_str(ref)!r} starts at {e.start!r}, expected {vertices[-1]!r}"
            )
        vertices.append(e.end)
        out_steps.append(ref)
    return Path(tuple(vertices), tuple(out_steps))


@dataclass(frozen=True)
class Cycle:
    """A simple cycle stored as a closed path; the start is the basepoint.

    The canonical rotation puts the lexicographically least vertex first.
    Sources along a cycle are pairwise distinct, so each vertex on the cycle
    emits exactly one cycle edge and receives exactly one.
    """

    path: Path

    @property
    def base(self) -> str:
        return self.path.start

    @property
    def steps(self) -> tuple:
        return self.path.steps

    @property
    def sources(self) -> tuple:
        return self.path.vertices[:-1]

    @property
    def vertex_set(self) -> frozenset:
        return frozenset(self.sources)

    def __len__(self):
        return len(self.path.steps)

    def rotate_to(self, v: str) -> "Cycle":
        if v not in self.sources:
            raise InputError(f"{v!r} is not on the cycle")
        i = self.sources.index(v)
        if i == 0:
            return self
        verts = self.path.vertices
        rotated = Path(
            verts[i:-1] + verts[: i + 1], self.steps[i:] + self.steps[:i]
        )
        return Cycle(rotated)

    def canonical(self) -> "Cycle":
        return self.rotate_to(min(self.sources))

    def edge_into(self, v: str) -> EdgeRef:
        return self.steps[self.sources.index(v) - 1]

    def arc(self, u: str, v: str) -> Path:
        """The path along the cycle from u to v (trivial when u == v)."""
        rotated = self.rotate_to(u)
        if u == v:
            return vertex_path(u)
        j = rotated.sources.index(v)
        return rotated.path.prefix(j)

    def power(self, k: int) -> Path:
        """The path winding k >= 0 times around from the basepoint."""
        out = vertex_path(self.base)
        for _ in range(k):
            out = out.concat(self.path)
        return out

    def walk_from(self, v: str, length: int) -> Path:
        """The path of the given length along the cycle starting at v."""
        rotated = self.rotate_to(v)
        out = vertex_path(v)
        for i in range(length):
            step = rotated.steps[i % len(rotated.steps)]
            nxt = rotated.path.vertices[i % len(rotated.steps) + 1]
            out = Path(out.vertices + (nxt,), out.steps + (step,))
        return out

    def sort_key(self):
        return _steps_key(self.canonical().steps)

    def __str__(self):
        return str(self.path)


def _steps_key(steps: tuple) -> tuple:
    """``Cycle.sort_key`` of the cycle whose canonical steps these are."""
    return (len(steps), tuple(ref_str(s) for s in steps))


def _closed_path(g: Graph, start: str, steps: Iterable[EdgeRef]) -> Path:
    """make_path, required to be a nonempty closed path whose steps have
    pairwise distinct sources."""
    p = make_path(g, start, steps)
    if p.is_vertex or p.start != p.end:
        raise InputError("a cycle must be a nonempty closed path")
    sources = p.vertices[:-1]
    if len(set(sources)) != len(sources):
        raise InputError("cycle edges must have pairwise distinct sources")
    return p


def make_cycle(g: Graph, start: str, steps: Iterable[EdgeRef]) -> Cycle:
    return Cycle(_closed_path(g, start, steps)).canonical()


def check_cycle(g: Graph, c: Cycle) -> Cycle:
    """Validate a Cycle value as a cycle of g, its vertex tuple included;
    returns c as given (not rotated)."""
    if _closed_path(g, c.base, c.steps).vertices != c.path.vertices:
        raise InputError("cycle vertices do not match its edges")
    return c


class RationalTailSpec:
    """A rational infinite path: a finite prefix followed by c, c, c, ...

    Canonical form: the prefix never ends with the cycle edge that enters
    its endpoint, and the cycle is rotated so its base is the prefix end.
    This makes representatives of tail-equivalent paths unique.

    A value object like ``Path``: a hash kept after first use, immutable
    by convention, pickled from its fields.
    """

    __slots__ = ("prefix", "cycle", "_hash")

    def __init__(self, prefix: Path, cycle: Cycle):
        self.prefix = prefix
        self.cycle = cycle
        self._hash = None

    def __eq__(self, other):
        if other.__class__ is not RationalTailSpec:
            return NotImplemented
        return self.prefix == other.prefix and self.cycle == other.cycle

    def __hash__(self):
        h = self._hash
        if h is None:
            h = self._hash = hash((self.prefix, self.cycle))
        return h

    def __repr__(self):
        return f"RationalTailSpec(prefix={self.prefix!r}, cycle={self.cycle!r})"

    def __reduce__(self):
        return (RationalTailSpec, (self.prefix, self.cycle))

    @property
    def vertex_support(self) -> frozenset:
        return frozenset(self.prefix.vertices) | self.cycle.vertex_set

    def __str__(self):
        return f"{self.prefix}({self.cycle})^inf"


def rational_tail(g: Graph, prefix: Path, cycle: Cycle) -> RationalTailSpec:
    """Build the canonical representative of prefix . cycle^infinity."""
    if prefix.end not in cycle.sources:
        raise InputError("prefix must end on the cycle")
    cyc = cycle.rotate_to(prefix.end)
    while prefix.steps and prefix.steps[-1] == cyc.edge_into(cyc.base):
        prev = g.src(prefix.steps[-1])
        prefix = prefix.drop_last()
        cyc = cyc.rotate_to(prev)
    return RationalTailSpec(prefix, cyc)


# ---------------------------------------------------------------------------
# Reachability predicates
# ---------------------------------------------------------------------------


def _closure(adjacency, seeds: Iterable[str]) -> frozenset:
    seen = set(seeds)
    frontier = list(seen)
    while frontier:
        nxt = []
        for v in frontier:
            for u in adjacency(v):
                if u not in seen:
                    seen.add(u)
                    nxt.append(u)
        frontier = nxt
    return frozenset(seen)


def root(g: Graph, V: Iterable[str]) -> frozenset:
    """R(V): every vertex with a path into V (reverse reachability), the
    union of the per-vertex root bitmasks of ``_lattice``."""
    V = g.check_vertices(V)
    lattice = _lattice(g)
    return lattice.names(reduce(or_, map(lattice.root.__getitem__, V), 0))


def tree(g: Graph, V: Iterable[str]) -> frozenset:
    """T(V): every vertex some member of V reaches (forward reachability),
    the union of the per-vertex tree bitmasks of ``_lattice``."""
    V = g.check_vertices(V)
    lattice = _lattice(g)
    return lattice.names(reduce(or_, map(lattice.tree.__getitem__, V), 0))


def is_hereditary(g: Graph, H: Iterable[str]):
    """H is hereditary when members only ever reach members.

    Returns (True, None) or (False, (u, v)) with u in H reaching v outside H:
    the least escape of the least member.
    """
    H = g.check_vertices(H)
    lattice = _lattice(g)
    outside = ~lattice.mask(H)
    for u in sorted(H):
        escaped = lattice.tree[u] & outside
        if escaped:
            return False, (u, min(lattice.names(escaped)))
    return True, None


def is_saturated(g: Graph, H: Iterable[str]):
    """H absorbs every regular vertex whose edges all land in H.

    Returns (True, None) or (False, v) for the first such v in name order
    outside H.
    """
    H = g.check_vertices(H)
    lattice = _lattice(g)
    outside = ~lattice.mask(H)
    for v, bit, targets in lattice.regular:
        if bit & outside and not targets & outside:
            return False, v
    return True, None


class _Lattice:
    """The reachability of one graph as int bitmasks, built once per graph:
    the one store of R(v), T(v), the regular vertices and the infinite
    emitters that every reachability predicate reads.

    ``order`` lists the vertices by decreasing |T(v)|, ties broken by name,
    and the vertex at position i has bit ``1 << i``.  A vertex reaching w
    outside its strongly connected component has a larger tree than w, so
    it comes before w.
    """

    __slots__ = (
        "order", "bit", "by_name", "tree", "root", "trees", "by_root", "regular",
        "saturating", "emitters",
    )

    def __init__(self, g: Graph):
        reach = {v: _closure(g.successors, [v]) for v in g.vertex_list}  # T(v)
        self.order = tuple(sorted(g.vertex_list, key=lambda v: (-len(reach[v]), v)))
        bit = self.bit = {v: 1 << i for i, v in enumerate(self.order)}
        mask = self.mask

        tree = self.tree = {v: mask(reach[v]) for v in g.vertex_list}  # T(v) by name
        self.trees = tuple(tree[v] for v in self.order)  # T(v) by position
        self.by_name = tuple((v, bit[v], tree[v]) for v in g.vertex_list)  # (v, bit, T(v)), sorted
        # R(v) holds the vertices whose tree holds v; by_root maps R(v) to
        # the vertices v with that root, sorted
        self.root, self.by_root = {}, {}
        for v, b, _ in self.by_name:
            r = self.root[v] = sum(1 << i for i, t in enumerate(self.trees) if t & b)
            self.by_root[r] = self.by_root.get(r, ()) + (v,)
        # (v, bit, targets) of each regular vertex, sorted
        self.regular = tuple(
            (v, bit[v], mask({g.edges[e][1] for e in g._out_edges[v]}))
            for v in g.vertex_list
            if g.is_regular(v)
        )
        # (bit, targets) of each regular vertex on no cycle, that is with no
        # target in its root, last position first.  A vertex on a cycle is in
        # every hereditary set holding its targets, and the targets of one on
        # no cycle come after it.
        self.saturating = tuple(
            (b, targets)
            for v, b, targets in sorted(self.regular, key=lambda r: -r[1])
            if not self.root[v] & targets
        )
        # (v, bit, bundle targets, edge targets) of each infinite emitter, sorted
        self.emitters = tuple(
            (
                v,
                bit[v],
                mask({g.bundles[b][1] for b in g._out_bundles[v]}),
                mask({g.edges[e][1] for e in g._out_edges[v]}),
            )
            for v in g.vertex_list
            if g._out_bundles[v]
        )

    def mask(self, vertices) -> int:
        """The bitmask of a set of vertex names."""
        return sum(map(self.bit.__getitem__, vertices))

    def names(self, V: int) -> frozenset:
        """The vertex names of the bitmask V."""
        return frozenset(v for v, b, _ in self.by_name if V & b)

    def breaking(self, H: int) -> tuple:
        """B_H in name order, for a hereditary saturated H: the infinite
        emitters outside H whose edge set into the complement is nonempty
        and finite, that is every bundle lands in H and some edge does not."""
        return tuple(
            v
            for v, b, bundle_targets, edge_targets in self.emitters
            if not H & b and not bundle_targets & ~H and edge_targets & ~H
        )

    def downwards_directed(self, V: int):
        """(True, None) when every two members u, w of the set V reach a
        common member, that is T(u) & T(w) & V is not empty; else (False,
        (u, w)) for the first pair in name order that does not."""
        members = [(v, tree & V) for v, b, tree in self.by_name if V & b]
        for i, (u, tu) in enumerate(members):
            for w, tw in members[i + 1:]:
                if not tu & tw:
                    return False, (u, w)
        return True, None

    def closure(self, V: int) -> int:
        """The least hereditary saturated superset of the set V.

        H starts as the OR of the trees of V, which is hereditary.  Adding a
        regular vertex whose targets lie in H keeps H hereditary, and one
        pass over ``saturating`` reaches the fixed point: each target of a
        vertex has had its turn before the vertex.
        """
        trees, H = self.trees, 0
        while V:
            low = V & -V
            H |= trees[low.bit_length() - 1]
            V &= ~H
        for bit, targets in self.saturating:
            if not targets & ~H:
                H |= bit
        return H


def _lattice(g: Graph) -> _Lattice:
    """The bitmask tables of g, built once per graph."""
    analysis = g._analysis
    if analysis.lattice is None:
        analysis.lattice = _Lattice(g)
    return analysis.lattice


def hereditary_saturated_closure(g: Graph, V: Iterable[str]) -> frozenset:
    """Least hereditary and saturated superset of V (fixed point of both rules)."""
    lattice = _lattice(g)
    return lattice.names(lattice.closure(lattice.mask(g.check_vertices(V))))


def is_downwards_directed(g: Graph, V: Iterable[str]):
    """Every two members of V must reach a common member of V.

    Returns (True, None) or (False, (u, v)) for the first unboundable pair
    in name order.  Runs on the bitmasks of ``_lattice``.
    """
    lattice = _lattice(g)
    return lattice.downwards_directed(lattice.mask(g.check_vertices(V)))


def has_icsp(g: Graph, V: Iterable[str]):
    """(Inner) countable separation, witnessed by C = V itself.

    On a finite graph every vertex set is countable, so the predicate is
    constantly true; it exists so the classification conditions can be
    stated in full.
    """
    V = g.check_vertices(V)
    return True, V


# ---------------------------------------------------------------------------
# Cycles
# ---------------------------------------------------------------------------


def enumerate_cycles(g: Graph, bundle_sample: int = 1) -> list:
    """All simple cycles in canonical rotation, each exactly once.

    Parallel bundle edges yield one cycle per sampled index; the default
    sample 1 gives the index-0 representative of each parallel class.  The
    cycles are enumerated once per graph and sample; every call returns a
    new list.
    """
    return list(_cycles(g, bundle_sample))


def _cycles(g: Graph, bundle_sample: int) -> tuple:
    if not g.bundles:
        bundle_sample = 1  # every sample gives the same cycles
    cycles = g._analysis.cycles
    found = cycles.get(bundle_sample)
    if found is None:
        found = cycles[bundle_sample] = tuple(_enumerate_cycles(g, bundle_sample))
    return found


def _enumerate_cycles(g: Graph, bundle_sample: int) -> list:
    cycles = set()

    def extend(path_steps, path_vertices):
        at = path_vertices[-1]
        start = path_vertices[0]
        for ref in g.out_refs(at, bundle_sample):
            nxt = g.tgt(ref)
            if nxt == start:
                # start is the least vertex on the cycle: canonical rotation
                cycles.add(
                    Cycle(Path(tuple(path_vertices) + (start,), tuple(path_steps) + (ref,)))
                )
            elif nxt > start and nxt not in path_vertices:  # vertex_list is sorted
                extend(path_steps + [ref], path_vertices + [nxt])

    for v in g.vertex_list:
        extend([], [v])
    return sorted(cycles, key=lambda c: _steps_key(c.steps))  # c is canonical


def _distances_to(g: Graph, t: str) -> dict:
    """The length of a shortest path from u to t, for every u reaching t."""
    dist = {t: 0}
    frontier = [t]
    while frontier:
        nxt = []
        for v in frontier:
            for u in g.predecessors(v):
                if u not in dist:
                    dist[u] = dist[v] + 1
                    nxt.append(u)
        frontier = nxt
    return dist


def _first_cycle(
    g: Graph, touch: frozenset, sample: int, exclude: Optional[Cycle] = None
) -> Optional[Cycle]:
    """The least cycle in ``Cycle.sort_key`` order through a vertex of touch,
    other than exclude, with bundles sampled at indices < sample; None when
    there is none.  Remembered per graph.

    The search runs one cycle length at a time and stops at the first
    length that has a cycle, so it meets no longer cycle.  A path of k
    steps from a start t is extended at u only while k + dist(u, t) stays
    within the length.
    """
    memo = g._analysis.first_cycles
    key = (touch, sample, exclude)
    if key in memo:
        return memo[key]
    dists = {t: _distances_to(g, t) for t in sorted(touch)}
    best = None  # (sort key, vertices, steps) of the least cycle so far
    # A length below the shortest cycle through t prunes every first step.
    for length in range(1, max(map(len, dists.values())) + 1):
        for t, dist in dists.items():
            best = _least_closing(g, t, dist, length, sample, exclude, best)
        if best is not None:
            break
    found = memo[key] = None if best is None else Cycle(Path(best[1], best[2]))
    return found


def _least_closing(g, t, dist, length, sample, exclude, best):
    """The least of best and the cycles of exactly this length through t
    other than exclude, as (sort key, canonical vertices, canonical steps)."""
    verts, steps = [t], []

    def extend(u):
        nonlocal best
        k = len(steps) + 1
        for ref in g.out_refs(u, sample):
            w = g.tgt(ref)
            if w == t:
                if k < length:
                    continue
                i = verts.index(min(verts))  # rotate to the least vertex
                cyc_steps = tuple(steps[i:] + [ref] + steps[:i])
                if exclude is not None and cyc_steps == exclude.steps:
                    continue
                key = _steps_key(cyc_steps)
                if best is None or key < best[0]:
                    best = (key, tuple(verts[i:] + verts[: i + 1]), cyc_steps)
            # a w that cannot reach t gets dist = length, which prunes it
            elif k + dist.get(w, length) <= length and w not in verts:
                verts.append(w)
                steps.append(ref)
                extend(w)
                verts.pop()
                steps.pop()

    extend(t)
    return best


def cycle_exits(g: Graph, c: Cycle) -> list:
    """Edge refs leaving the cycle from its vertices (bundles at index 0)."""
    on_cycle = set(c.steps)
    exits = []
    for v in c.sources:
        for ref in g.out_refs(v):
            if ref not in on_cycle:
                exits.append(ref)
        # A bundle edge on the cycle leaves its infinitely many parallel
        # copies as exits; make sure one of them shows up.
        for step in c.steps:
            if is_bundle_ref(step) and g.src(step) == v:
                witness = (step[0], step[1] + 1)
                if witness not in on_cycle and witness not in exits:
                    exits.append(witness)
    return exits


def _exitless_cycles(g: Graph, V: frozenset) -> list:
    """The cycles inside V with no exit landing in V, least first in
    ``Cycle.sort_key`` order.

    Such a cycle is a strongly connected component of G[V] in which every
    vertex has exactly one sample-1 ref into V, an ordinary edge that stays
    in the component; a bundle step always leaves a parallel copy as an
    exit.  So these are the cycles of the partial map that sends a vertex
    to the target of its one ref into V, when that ref is an ordinary edge.
    """
    only_edge = {}
    for v in V:
        into = [ref for ref in g.out_refs(v) if g.tgt(ref) in V]
        if len(into) == 1 and not is_bundle_ref(into[0]):
            only_edge[v] = into[0]
    cycles, seen = [], set()
    for v in sorted(only_edge):
        walk = {}  # vertex -> position on this walk
        while v in only_edge and v not in seen:
            seen.add(v)
            walk[v] = len(walk)
            v = g.tgt(only_edge[v])
        if v in walk:  # the walk closed on itself
            sources = list(walk)[walk[v]:]
            i = sources.index(min(sources))
            sources = sources[i:] + sources[:i]
            steps = tuple(only_edge[u] for u in sources)
            cycles.append(Cycle(Path(tuple(sources) + (sources[0],), steps)))
    return sorted(cycles, key=lambda c: _steps_key(c.steps))


def has_condition_L(g: Graph, V: Iterable[str]):
    """Every cycle inside V needs an exit landing in V.

    Returns (True, None) or (False, exitless_cycle), the least exitless
    cycle in ``Cycle.sort_key`` order.
    """
    exitless = _exitless_cycles(g, g.check_vertices(V))
    return (False, exitless[0]) if exitless else (True, None)


@dataclass(frozen=True)
class CycleClassification:
    kind: str  # exclusive | extreme_in_V | no_exit_in_V | neither
    exclusive: bool
    extreme_in_V: bool
    no_exit_in_V: bool
    escape: Optional[str] = None  # vertex witnessing a non-returning escape


def _induced(adjacency, V: frozenset):
    def step(v):
        return adjacency(v) & V

    return step


def classify_cycle(g: Graph, c: Cycle, V: Iterable[str]) -> CycleClassification:
    """Sort a cycle into exclusive / extreme-in-V / neither, with flags.

    Exclusive: no cycle vertex lies on a distinct cycle (a bundle edge on the
    cycle always breaks this, via its parallel copies).  Extreme in V: the
    cycle has an exit landing in V and every V-internal escape returns to the
    cycle inside V.  The two are mutually exclusive; ``no_exit_in_V`` is an
    independent flag and the fallback kind.
    """
    V = g.check_vertices(V)
    check_cycle(g, c)
    if not c.vertex_set <= V:
        raise InputError("cycle vertices must lie inside V")
    return _classify_cycle(g, c, V)


def _classify_cycle(g: Graph, c: Cycle, V: frozenset) -> CycleClassification:
    """classify_cycle, trusting that c is a cycle of g inside V, a set of g.
    Remembered per graph and (c, V)."""
    memo = g._analysis.cycle_classes
    found = memo.get((c, V))
    if found is not None:
        return found
    on_cycle = c.vertex_set
    if any(is_bundle_ref(s) for s in c.steps):
        exclusive = False
    else:
        # No other cycle passes through a vertex of c exactly when each
        # vertex of c has one sample-1 ref into c and c is the strongly
        # connected component T(v) & R(v) of its vertices.
        lattice = _lattice(g)
        exclusive = all(
            sum(g.tgt(ref) in on_cycle for ref in g.out_refs(v)) == 1 for v in c.sources
        ) and lattice.tree[c.base] & lattice.root[c.base] == lattice.mask(on_cycle)

    exits_in_V = [ref for ref in cycle_exits(g, c) if g.tgt(ref) in V]
    no_exit_in_V = not exits_in_V

    extreme = False
    escape = None
    if exits_in_V:
        # An escape is a vertex the cycle reaches inside V that cannot get
        # back to the cycle inside V.
        escapes = _closure(_induced(g.successors, V), on_cycle) - _closure(
            _induced(g.predecessors, V), on_cycle
        )
        extreme = not escapes
        escape = min(escapes) if escapes else None

    if exclusive:
        kind = "exclusive"
    elif extreme:
        kind = "extreme_in_V"
    elif no_exit_in_V:
        kind = "no_exit_in_V"
    else:
        kind = "neither"
    found = memo[c, V] = CycleClassification(kind, exclusive, extreme, no_exit_in_V, escape)
    return found


def exitless_cycle_vertices(g: Graph) -> dict:
    """Vertices lying on a cycle with no exits at all, mapped to that cycle."""
    return {v: c for c in _exitless_cycles(g, g.vertices) for v in c.sources}


def enumerate_paths(
    g: Graph,
    max_len: int,
    bundle_sample: int = 1,
    start: Optional[str] = None,
    end: Optional[str] = None,
) -> Iterator[Path]:
    """All paths of length <= max_len, bundle indices below the sample.

    Yields in breadth-first order (vertex paths first), optionally filtered
    by start and/or end vertex.
    """
    starts = [start] if start is not None else list(g.vertex_list)
    frontier = [vertex_path(v) for v in starts]
    while frontier:
        nxt = []
        for p in frontier:
            if end is None or p.end == end:
                yield p
            if len(p) < max_len:
                for ref in g.out_refs(p.end, bundle_sample):
                    nxt.append(Path(p.vertices + (g.tgt(ref),), p.steps + (ref,)))
        frontier = nxt


# ---------------------------------------------------------------------------
# Breaking vertices
# ---------------------------------------------------------------------------


def breaking_vertices(g: Graph, H: Iterable[str]) -> frozenset:
    """B_H: infinite emitters outside H whose edge set into the complement
    is nonempty and finite.

    With bundles, finiteness means every bundle at the vertex targets H, and
    nonemptiness means at least one ordinary edge escapes H.
    """
    H = g.check_vertices(H)
    B = g._analysis.breaking.get(H)
    if B is None:
        ok, witness = is_hereditary(g, H)
        if not ok:
            raise InputError(f"H is not hereditary (witness {witness})")
        ok, witness = is_saturated(g, H)
        if not ok:
            raise InputError(f"H is not saturated (witness {witness})")
        B = _breaking_vertices(g, H)
    return B


def _breaking_vertices(g: Graph, H: frozenset) -> frozenset:
    """B_H for an H the caller knows to be hereditary and saturated.  The
    result is remembered per graph, and a remembered H counts as validated
    by ``breaking_vertices``, the one check of H that ``ideals`` uses too."""
    lattice = _lattice(g)
    B = g._analysis.breaking[H] = frozenset(lattice.breaking(lattice.mask(H)))
    return B
