"""Concrete graded module families over a Leavitt path algebra.

Four branching-system families live here, each a finite path followed by
a fixed tail word: sink and infinite-emitter modules (paths ending at v,
the empty word), infinite-path modules with a rational tail (c read modulo
its length) or an irrational tail (two cycles interleaved), and the cyclic
modules N_c of an exclusive cycle, whose reduced pairs p.q* glue a path to
a ghost walk around the cycle.  ``_TailSystem`` holds their fiber, sigma,
window, degree and enumeration rules once.  ``NcBranchingSystem.reduce`` is
the one check and reduction of a caller's pair p.q*; ``red``, the basis
selector, the N_c entry points and the shift isomorphisms go through it, or
through the strip rule ``_TailSystem._canonical`` on pairs a system built.
Each family knows its exact annihilator as an admissible pair (or, for a
rational tail ending in an exclusive cycle, a non-graded descriptor); the
branching engine verifies those formulas on bounded windows.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field as dc_field
from typing import Iterable, Optional, Union

from . import algebra as alg
from .branching import BranchingSystem, ModuleVector, Truncation, _add_term, act
from .errors import InputError, InternalCheckError, WindowOverflow
from .fields import QQ
from .graphs import (
    Cycle,
    Graph,
    Path,
    RationalTailSpec,
    _PathPair,
    _classify_cycle,
    _edge_path,
    breaking_vertices,
    check_cycle,
    classify_cycle,
    enumerate_paths,
    make_path,
    rational_tail,
    ref_str,
    root,
    vertex_path,
)
from .ideals import (
    GradedIdeal,
    NonGradedPrimitiveIdeal,
    admissible_pair,
    ideal_generators,
    laurent,
)


# ---------------------------------------------------------------------------
# Reduced pairs
# ---------------------------------------------------------------------------


class ReducedPair(_PathPair):
    """Basis element p.q* of an N_c system: q runs inside the cycle from the
    chosen basepoint, and p does not end with q's last edge.  A value
    object with the shared body of ``graphs._PathPair``."""

    __slots__ = ()

    @property
    def degree(self) -> int:
        return len(self.p) - len(self.q)

    def __str__(self):
        real = "" if self.p.is_vertex else str(self.p)
        ghost = "".join(f"{ref_str(s)}*" for s in reversed(self.q.steps))
        if real and ghost:
            return f"{real}{ghost}"
        return real or ghost or self.p.start


def red(g: Graph, cycle: Cycle, v: str, p: Path, q: Path) -> ReducedPair:
    """The unique reduced representative of p.q*: strip matching final edges.

    Degree-preserving and idempotent.  Requires r(p) = r(q) and q inside the
    cycle starting at v.
    """
    return NcBranchingSystem(g, cycle, v).reduce(p, q)


# ---------------------------------------------------------------------------
# Irrational tail rules
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class IrrationalRule:
    """A finitely described irrational infinite path: two distinct cycles
    through one pivot, interleaved as c d c c d d c c c d d d ...

    The word is aperiodic, so the path is irrational; its vertex support is
    just the two cycles' vertices.
    """

    c: Cycle  # both rotated to the shared pivot
    d: Cycle

    @property
    def pivot(self) -> str:
        return self.c.base

    @property
    def vertex_support(self) -> frozenset:
        return self.c.vertex_set | self.d.vertex_set

    def edge_word(self):
        """The path's edges in order from edge 1: c, d, c c, d d, ..."""
        k = 1
        while True:
            for _ in range(k):
                yield from self.c.steps
            for _ in range(k):
                yield from self.d.steps
            k += 1

    def __str__(self):
        return f"({self.c})({self.d})({self.c})^2({self.d})^2..."


def irrational_rule(g: Graph, c: Cycle, d: Cycle) -> IrrationalRule:
    c = check_cycle(g, c).canonical()
    d = check_cycle(g, d).canonical()
    if c == d:
        raise InputError("the two cycles must be distinct")
    shared = c.vertex_set & d.vertex_set
    if not shared:
        raise InputError("the two cycles must share a vertex")
    pivot = min(shared)
    return IrrationalRule(c.rotate_to(pivot), d.rotate_to(pivot))


# ---------------------------------------------------------------------------
# Module descriptors
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class VAlphaModule:
    """Infinite-path module; the tail is a rational cycle-repeat or an
    irrational two-cycle interleaving rule."""

    tail: Union[RationalTailSpec, IrrationalRule]

    @property
    def rational(self) -> bool:
        return isinstance(self.tail, RationalTailSpec)

    @property
    def vertex_support(self) -> frozenset:
        return self.tail.vertex_support

    def system(self, g: Graph) -> BranchingSystem:
        """The branching system of this descriptor, which is valid on g."""
        return (RationalTailSystem if self.rational else IrrationalTailSystem)(g, self.tail)

    def label(self):
        return f"V[{self.tail}]"


@dataclass(frozen=True)
class SinkModule:
    v: str

    @property
    def vertex_support(self) -> frozenset:
        return frozenset((self.v,))

    def system(self, g: Graph) -> BranchingSystem:
        return PathEndingSystem(g, self.v)

    def label(self):
        return f"N_{self.v} (sink)"


@dataclass(frozen=True)
class InfEmitterModule(SinkModule):  # paths ending at v, as for a sink
    subtype: str  # empty | in_B_H | infinite

    def label(self):
        tag = {"empty": "0", "in_B_H": "B", "infinite": "inf"}[self.subtype]
        return f"N_{self.v}[{tag}]"


@dataclass(frozen=True)
class NcModule:
    cycle: Cycle
    v: str

    @property
    def vertex_support(self) -> frozenset:
        return self.cycle.vertex_set

    def system(self, g: Graph) -> BranchingSystem:
        return NcBranchingSystem(g, self.cycle, self.v)

    def label(self):
        return f"N_{self.cycle}^{self.v}"


ModuleDescriptor = Union[VAlphaModule, SinkModule, InfEmitterModule, NcModule]


def emitter_subtype(g: Graph, v: str) -> str:
    """Classify an infinite emitter by its edges back into R(v): a bundle
    back in means ``infinite``, no edge back means ``empty``, otherwise
    ``in_B_H``.  Edges, not target vertices, are counted, since a bundle's
    infinitely many returns may all land on one vertex."""
    g.check_vertices([v])
    if not g.is_infinite_emitter(v):
        raise InputError(f"{v!r} is not an infinite emitter")
    returns = return_edge_count(g, v)
    return "infinite" if returns is None else "in_B_H" if returns else "empty"


def return_edge_count(g: Graph, v: str) -> Optional[int]:
    """Number of edges from v back into R(v); None when infinite."""
    R = root(g, [v])
    if any(g.tgt((b, 0)) in R for b in g.out_bundle_ids(v)):
        return None
    return sum(1 for e in g.out_edge_ids(v) if g.tgt(e) in R)


def nc_module(g: Graph, cycle: Cycle, v: str) -> NcModule:
    cls = classify_cycle(g, cycle, g.vertices)
    if not cls.exclusive:
        raise InputError(f"cycle {cycle} is not exclusive")
    if v not in cycle.vertex_set:
        raise InputError(f"{v!r} is not on the cycle")
    return NcModule(cycle.canonical(), v)


def sink_module(g: Graph, v: str) -> SinkModule:
    g.check_vertices([v])
    if not g.is_sink(v):
        raise InputError(f"{v!r} is not a sink")
    return SinkModule(v)


def inf_emitter_module(g: Graph, v: str) -> InfEmitterModule:
    return InfEmitterModule(v, emitter_subtype(g, v))


def valpha_module(g: Graph, tail) -> VAlphaModule:
    """A tail spec is valid when its constructor returns it unchanged."""
    if isinstance(tail, RationalTailSpec):
        prefix = make_path(g, tail.prefix.start, tail.prefix.steps)
        canon = rational_tail(g, prefix, check_cycle(g, tail.cycle))
        kind = "rational tail spec"
    elif isinstance(tail, IrrationalRule):
        kind, canon = "irrational rule", irrational_rule(g, tail.c, tail.d)
    else:
        raise InputError(f"not a tail spec: {tail!r}")
    if canon != tail:
        raise InputError(f"{kind} is not in canonical form")
    return VAlphaModule(canon)


def validate_module(g: Graph, d: ModuleDescriptor) -> ModuleDescriptor:
    if isinstance(d, NcModule):
        return nc_module(g, d.cycle, d.v)
    if isinstance(d, InfEmitterModule):  # before SinkModule, its base class
        fresh = inf_emitter_module(g, d.v)
        if fresh.subtype != d.subtype:
            raise InputError(
                f"subtype mismatch for {d.v!r}: stored {d.subtype}, "
                f"recomputed {fresh.subtype}"
            )
        return fresh
    if isinstance(d, SinkModule):
        return sink_module(g, d.v)
    if isinstance(d, VAlphaModule):
        return valpha_module(g, d.tail)
    raise InputError(f"not a module descriptor: {d!r}")


# ---------------------------------------------------------------------------
# Branching systems per family
# ---------------------------------------------------------------------------


def _fits(p: Path, t: Truncation) -> bool:
    """The window's test of one path: its length, and its bundle indices."""
    steps = p.steps
    if len(steps) > t.max_path_length:
        return False
    bound = t.bundle_sample
    for s in steps:
        if s.__class__ is tuple and s[1] >= bound:  # a bundle ref (a tuple) outside the sample
            return False
    return True


def _paths_by_end(g: Graph, t: Truncation, ends) -> dict:
    """The window's paths ending at each of the given vertices, each list in
    enumerate_paths order, from one enumeration shared by every end."""
    out = {v: [] for v in ends}
    for p in enumerate_paths(g, t.max_path_length, t.bundle_sample):
        bucket = out.get(p.end)
        if bucket is not None:
            bucket.append(p)
    return out


class _TailSystem(BranchingSystem):
    """The body shared by the four families here: a basis element is a
    finite path p followed by a fixed tail word w read from position m, the
    path p w_{m+1} w_{m+2} ...  In canonical form m is 0 or p's last step
    is not w_m, so each path of the module is one element.

    A family gives its word, read from ``start``, its ``value`` (an
    element's plain tuple (p's steps, m)) and its ``_join`` (the element of
    (p, m)).  A finite word ends its positions; a periodic word (``period``
    > 0) is read modulo its length, at positions 1 to period, as such a
    tail carries no grading.

    The oracles run on values; ``enumerate`` and ``element`` give elements.
    An edge acts by prepending.  A canonical p with a step keeps that last
    step, so prepending never cancels; a bare tail at m cancels only w_m,
    and then moves to m - 1.  sigma_inv drops p's first step or moves a
    bare tail to m + 1, and so never strips either.
    """

    graded = True

    def __init__(self, g: Graph, start: str, word: Iterable, period: int = 0):
        self.graph = g
        self._start = start
        self._word = iter(word)
        self._edges = [None]  # _edges[i] = w_i, as far as asked; None past a finite word
        self._period = period
        self._sampled = {}  # bundle_sample -> the set of g's refs in that sample

    def _edge_at(self, i: int):
        """w_i, read once per system off one pass of the word."""
        if i < 1:
            raise InputError("edge positions are 1-indexed")
        edges = self._edges
        while len(edges) <= i:
            edges.append(next(self._word, None))
        return edges[i]

    def _vertex_at(self, m: int) -> str:
        """Where the tail starts after m edges of the word."""
        return self.graph.tgt(self._edge_at(m)) if m else self._start

    def _canonical(self, p: Path, m: int):
        """The element of p w_{m+1} w_{m+2} ...: strip p's last step while it is w_m."""
        while m >= 1 and p.steps and p.steps[-1] == self._edge_at(m):
            p = p.drop_last()
            m -= 1
        return self._join(p, m)

    def element(self, x):
        steps, m = x
        if not steps:
            return self._join(vertex_path(self._vertex_at(m)), m)
        g = self.graph
        return self._join(Path((g.src(steps[0]),) + tuple(map(g.tgt, steps)), steps), m)

    def enumerate(self, t: Truncation):
        if self._period:  # one position per residue, in their anchors' order
            positions = sorted(range(1, self._period + 1), key=self._vertex_at)
        else:  # 0 to the window's length, as far as the word goes
            positions = [
                m for m in range(t.max_path_length + 1) if not m or self._edge_at(m) is not None
            ]
        anchors = [self._vertex_at(m) for m in positions]
        paths = _paths_by_end(self.graph, t, anchors)
        for m, anchor in zip(positions, anchors):
            last = self._edge_at(m) if m else None
            for p in paths[anchor]:
                if not (p.steps and p.steps[-1] == last):
                    yield self._join(p, m)

    def in_window(self, x, t: Truncation) -> bool:
        steps, m = x
        if len(steps) > t.max_path_length or m > t.max_path_length and not self._period:
            return False
        refs = self._sampled.get(t.bundle_sample)
        if refs is None:  # edge_refs(t) as one set
            g, k = self.graph, t.bundle_sample
            refs = frozenset(g.edges).union([(b, i) for b in g.bundles for i in range(k)])
            self._sampled[k] = refs
        return refs.issuperset(steps)

    def member_vertex(self, x, v: str) -> bool:
        steps, m = x
        return (self.graph.src(steps[0]) if steps else self._vertex_at(m)) == v

    def member_edge(self, x, ref) -> bool:
        steps, m = x
        if steps:
            return steps[0] == ref
        return self._edge_at(m + 1) == ref

    def sigma(self, ref, x):
        steps, m = x
        if m and not steps and ref == self._edge_at(m):
            return (), m - 1 or self._period
        return (ref,) + steps, m

    def sigma_inv(self, ref, x):
        steps, m = x
        if steps:
            if steps[0] == ref:
                return steps[1:], m
        elif ref == self._edge_at(m + 1):
            return (), m % self._period + 1 if self._period else m + 1
        raise InputError("element is not in this edge fiber")

    def degree(self, x) -> Optional[int]:
        if not self.graded:
            return None
        steps, m = x
        return len(steps) - m


class PathEndingSystem(_TailSystem):
    """Paths ending at a fixed vertex: the sink and infinite-emitter modules.
    The word is empty, so an element is its own prefix at position 0."""

    def __init__(self, g: Graph, v: str):
        super().__init__(g, v, ())
        self.v = v

    def value(self, x: Path) -> tuple:
        return x.steps, 0

    def _join(self, p: Path, m: int) -> Path:
        return p

    def basis_element(self, m: alg.Monomial, shift: int, t: Truncation) -> Path:
        if m.p.end != self.v:
            raise InputError(f"path ends at {m.p.end!r}, not at {self.v!r}")
        return m.p


class NcBranchingSystem(_TailSystem):
    """Reduced pairs p.q* with the reduction-twisted prepend action: the word
    runs around the cycle from v, and q is its first m edges, the ghost walk
    of length m."""

    def __init__(self, g: Graph, cycle: Cycle, v: str):
        self.cycle = cycle.canonical()
        self.v = v
        super().__init__(g, v, itertools.cycle(self.cycle.rotate_to(v).steps))
        self._ghosts = [vertex_path(v)]  # _ghosts[m] = w_1 ... w_m, as far as asked

    def value(self, x: ReducedPair) -> tuple:
        return x.p.steps, len(x.q.steps)

    def _ghost(self, m: int) -> Path:
        """The ghost walk w_1 ... w_m, built once per system."""
        ghosts = self._ghosts
        while len(ghosts) <= m:
            ghosts.append(ghosts[-1].concat(_edge_path(self.graph, self._edge_at(len(ghosts)))))
        return ghosts[m]

    def _join(self, p: Path, m: int) -> ReducedPair:
        return ReducedPair(p, self._ghost(m))

    def reduce(self, p: Path, q: Path) -> ReducedPair:
        """red(g, cycle, v, p, q): check that q is a ghost walk and that
        r(p) = r(q), then strip p's last step while it is q's."""
        if q.start != self.v:
            raise InputError(f"q must start at the basepoint {self.v!r}")
        if q != self._ghost(len(q)):
            raise InputError("q escapes the cycle")
        if p.end != q.end:
            raise InputError("p and q must share their range")
        return self._canonical(p, len(q))

    def basis_vertex(self) -> ReducedPair:
        return ReducedPair(vertex_path(self.v), vertex_path(self.v))

    def basis_element(self, m: alg.Monomial, shift: int, t: Truncation) -> ReducedPair:
        return self.reduce(m.p, m.q)


class RationalTailSystem(_TailSystem):
    """Paths tail-equivalent to c^infinity, in canonical (prefix, rotation)
    form: the word is c read modulo its length, and the rotation to the
    vertex after m edges is position m.  A branching system but not graded."""

    graded = False

    def __init__(self, g: Graph, spec: RationalTailSpec):
        self.spec = spec
        self.cycle = c = spec.cycle
        super().__init__(g, c.base, itertools.cycle(c.steps), period=len(c))
        self._rotations = [c.rotate_to(v) for v in c.sources]  # by position mod len(c)
        self._positions = {v: m or len(c) for m, v in enumerate(c.sources)}  # 1 to len(c)

    def value(self, x: RationalTailSpec) -> tuple:
        return x.prefix.steps, self._positions[x.cycle.base]

    def _join(self, p: Path, m: int) -> RationalTailSpec:
        return RationalTailSpec(p, self._rotations[m % self._period])

    def basis_element(self, m: alg.Monomial, shift: int, t: Truncation) -> RationalTailSpec:
        return rational_tail(self.graph, m.p, self.cycle)


class TailElement:
    """A path tail-equivalent to an irrational rule path: a finite prepend q
    followed by the rule path shifted m edges, with m minimal.

    A value object like ``graphs.Path``: a hash kept after first use,
    immutable by convention (no ``__setattr__`` guard), pickled from its
    fields.
    """

    __slots__ = ("q", "m", "_hash")

    def __init__(self, q: Path, m: int):
        self.q = q
        self.m = m
        self._hash = None

    def __eq__(self, other):
        if other.__class__ is not TailElement:
            return NotImplemented
        return self.q == other.q and self.m == other.m

    def __hash__(self):
        h = self._hash
        if h is None:
            h = self._hash = hash((self.q, self.m))
        return h

    def __repr__(self):
        return f"TailElement(q={self.q!r}, m={self.m!r})"

    def __reduce__(self):
        return (TailElement, (self.q, self.m))

    def __str__(self):
        base = f"shift^{self.m}(alpha)"
        return base if self.q.is_vertex else f"{self.q}.{base}"


class IrrationalTailSystem(_TailSystem):
    """Paths tail-equivalent to an irrational rule path: the word is the
    rule's, from its pivot."""

    def __init__(self, g: Graph, rule: IrrationalRule):
        self.rule = rule
        super().__init__(g, rule.pivot, rule.edge_word())

    def value(self, x: TailElement) -> tuple:
        return x.q.steps, x.m

    def _join(self, p: Path, m: int) -> TailElement:
        return TailElement(p, m)

    def basis_element(self, m: alg.Monomial, shift: int, t: Truncation) -> TailElement:
        """m.p, then the rule path shifted; a shift past t walks no rule."""
        if not 0 <= shift <= len(m.p) + t.max_path_length:  # reducing cancels <= len(p)
            raise InputError(f"shift {shift} is outside the window")
        if m.p.end != self._vertex_at(shift):
            raise InputError(f"path ends at {m.p.end!r}, off the rule path at shift {shift}")
        return self._canonical(m.p, shift)


class NaivePair(_PathPair):
    """Formal p.q* pair without the shared-range requirement; the historical
    non-example whose axiom (4) fails.  A value object with the shared body
    of ``graphs._PathPair``."""

    __slots__ = ()

    def __str__(self):
        return f"({self.p}).({self.q})*"


class NaivePairSystem(BranchingSystem):
    """All pairs p.q* with s(q) = v and no reduction: axioms (1)-(3) hold,
    axiom (4) fails at any regular vertex (the bare vertex is in no edge
    fiber)."""

    graded = True

    def __init__(self, g: Graph, v: str):
        self.graph = g
        self.v = v

    def enumerate(self, t: Truncation):
        qs = list(
            enumerate_paths(self.graph, t.max_path_length, t.bundle_sample, start=self.v)
        )
        for p in enumerate_paths(self.graph, t.max_path_length, t.bundle_sample):
            for q in qs:
                yield NaivePair(p, q)

    def in_window(self, x: NaivePair, t: Truncation) -> bool:
        return _fits(x.p, t) and _fits(x.q, t)

    def member_vertex(self, x: NaivePair, v: str) -> bool:
        return x.p.start == v

    def member_edge(self, x: NaivePair, ref) -> bool:
        return bool(x.p.steps) and x.p.steps[0] == ref

    def sigma(self, ref, x: NaivePair) -> NaivePair:
        return NaivePair(_edge_path(self.graph, ref).concat(x.p), x.q)

    def sigma_inv(self, ref, x: NaivePair) -> NaivePair:
        if not self.member_edge(x, ref):
            raise InputError("element is not in this edge fiber")
        return NaivePair(x.p.drop_first(), x.q)

    def degree(self, x: NaivePair) -> int:
        return len(x.p) - len(x.q)


def build_module(g: Graph, d: ModuleDescriptor) -> BranchingSystem:
    """Construct the branching system realizing a module descriptor."""
    return validate_module(g, d).system(g)


# ---------------------------------------------------------------------------
# Annihilators
# ---------------------------------------------------------------------------


def annihilator(g: Graph, d: ModuleDescriptor):
    """The exact annihilator as an ideal descriptor (no truncation involved)."""
    return _annihilator(g, validate_module(g, d))


def _annihilator(g: Graph, d: ModuleDescriptor):
    """annihilator for a descriptor that is valid on g."""
    H = g.vertices - root(g, d.vertex_support)
    B = breaking_vertices(g, H)
    if isinstance(d, InfEmitterModule) and d.subtype == "in_B_H":
        return GradedIdeal(admissible_pair(g, H, B - {d.v}))
    if isinstance(d, VAlphaModule) and d.rational:
        cyc = d.tail.cycle
        if _classify_cycle(g, cyc, g.vertices).exclusive:
            # ann = I(H, B_H) + <c - v>
            return NonGradedPrimitiveIdeal(
                admissible_pair(g, H, B), cyc.canonical(), laurent({0: -1, 1: 1})
            )
    return GradedIdeal(admissible_pair(g, H, B))


def annihilator_generators(g: Graph, d: ModuleDescriptor, field=QQ, ideal=None) -> list:
    """Generators of the annihilator, for bounded annihilation checks; pass
    ``ideal`` when annihilator(g, d) is already at hand."""
    if ideal is None:
        ideal = annihilator(g, d)
    gens = ideal_generators(g, ideal.pair, field)
    if isinstance(ideal, GradedIdeal):
        return gens
    # f(c): substitute the cycle (based at the tail's basepoint) for x.
    base = ideal.cycle.rotate_to(d.tail.cycle.base)
    total = alg.zero(g, field)
    for n, k in ideal.poly.coeffs:
        total = total + alg.path_element(g, base.power(n), field).scale(k)
    return gens + [total]


# ---------------------------------------------------------------------------
# Homogeneous structure of N_c
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Block:
    """One group of the first-touch decomposition of a homogeneous vector."""

    k: object
    t: Path  # off-cycle prefix, ending at its only cycle vertex
    c_part: Path  # remainder of p, running inside the cycle
    q: Path
    collapsed: ReducedPair  # red(c_part . q*) = the d_j of the block
    basis: ReducedPair


def _first_touch_split(cycle_vertices: frozenset, p: Path):
    for i, w in enumerate(p.vertices):
        if w in cycle_vertices:
            return p.prefix(i), p.drop_first(i)
    raise InternalCheckError("basis path never touches the cycle")


def _nc_system(g: Graph, d: NcModule) -> NcBranchingSystem:
    """The validated system of an N_c descriptor, and of no other kind."""
    if not isinstance(d, NcModule):
        raise InputError(f"not an N_c module descriptor: {d!r}")
    return build_module(g, d)


def _check_basis(sys: NcBranchingSystem, x: ReducedPair) -> None:
    """The one check of a caller's element: x is a basis element of sys
    when sys.reduce(x.p, x.q) == x; else InputError names x."""
    try:
        y = sys.reduce(x.p, x.q)
    except InputError as exc:
        raise InputError(f"{x} is not a basis element of N_{sys.cycle}^{sys.v}: {exc}") from None
    if y != x:
        raise InputError(f"{x} is not a basis element of N_{sys.cycle}^{sys.v}: it reduces to {y}")


def homogeneous_decompose(g: Graph, d: NcModule, a: ModuleVector) -> list:
    """Partition the support of a homogeneous vector by off-cycle prefix.

    Within a homogeneous vector all support elements sharing a prefix
    collapse to a single k * t . d term; the blocks come back sorted by
    prefix."""
    sys = _nc_system(g, d)
    if not a.is_homogeneous(sys):
        raise InputError("vector is not homogeneous")
    for x in a.terms:
        _check_basis(sys, x)
    return _blocks(sys, a)


def _blocks(sys: NcBranchingSystem, a: ModuleVector) -> list:
    """homogeneous_decompose for a homogeneous vector the caller has checked."""
    groups: dict = {}
    for x, k in a.terms.items():
        t, c_part = _first_touch_split(sys.cycle.vertex_set, x.p)
        groups.setdefault(t, []).append((k, c_part, x))
    blocks = []
    for t in sorted(groups, key=lambda p: (len(p), str(p))):
        entries = groups[t]
        if len({x for _, _, x in entries}) != 1:
            raise InternalCheckError(
                "distinct same-prefix basis elements in a homogeneous vector"
            )
        k, c_part, x = entries[0]
        collapsed = sys._canonical(c_part, len(x.q))
        blocks.append(Block(k, t, c_part, x.q, collapsed, x))
    return blocks


@dataclass(frozen=True)
class GeneratorWitness:
    index: int
    p: Path
    q: Path
    k: object
    carrier: alg.AlgebraElement  # k^{-1} q p*, carrying a onto the basis vertex


def recover_generator(
    g: Graph, d: NcModule, a: ModuleVector, t: Truncation
) -> GeneratorWitness:
    """Produce the algebra element carrying a onto the cyclic generator.

    For nonzero homogeneous a with support block k * red(p q*), the element
    (1/k) q p* sends a to the basis vertex; this is the executable content
    of graded simplicity."""
    return _recover(_nc_system(g, d), a, t)


def _recover(sys: NcBranchingSystem, a: ModuleVector, t: Truncation) -> GeneratorWitness:
    """recover_generator on the validated system of its descriptor."""
    if a.is_zero:
        raise InputError("vector is zero")
    if not a.is_homogeneous(sys):
        raise InputError("vector is not homogeneous")
    for x in a.terms:
        if not sys.in_window(sys.value(x), t):
            raise InputError(f"support element {x} is outside the window")
        _check_basis(sys, x)
    block = _blocks(sys, a)[0]
    p, q = block.basis.p, block.q
    carrier = alg.monomial(sys.graph, q, p, field=a.field).scale(1 / block.k)
    result = act(sys, carrier, a, t)
    target = ModuleVector.unit(sys.basis_vertex(), a.field)
    if result != target:
        raise InternalCheckError(
            f"generator recovery failed: got {result}, wanted {target}"
        )
    return GeneratorWitness(0, p, q, block.k, carrier)


# ---------------------------------------------------------------------------
# Shift isomorphisms between basepoints
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ShiftIso:
    """The basis map N_c at basepoint w -> N_c at basepoint v appending the
    arc from v to w as extra ghost; shifts degree down by the arc length.
    ``source`` and ``target`` are the systems at w and at v, built once."""

    g: Graph
    cycle: Cycle
    v: str
    w: str
    arc: Path  # v -> w along the cycle
    source: NcBranchingSystem = dc_field(init=False, repr=False, compare=False)
    target: NcBranchingSystem = dc_field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "source", NcBranchingSystem(self.g, self.cycle, self.w))
        object.__setattr__(self, "target", NcBranchingSystem(self.g, self.cycle, self.v))

    @property
    def n(self) -> int:
        return len(self.arc)

    def forward(self, x: ReducedPair) -> ReducedPair:
        _check_basis(self.source, x)
        return self._forward(x)

    def inverse(self, y: ReducedPair) -> ReducedPair:
        _check_basis(self.target, y)
        return self._inverse(y)

    def _forward(self, x: ReducedPair) -> ReducedPair:
        """forward for a basis element of the source that the caller knows:
        the ghost at v of length n + len(q) is the arc, then x's ghost."""
        return self.target._canonical(x.p, self.n + len(x.q))

    def _inverse(self, y: ReducedPair) -> ReducedPair:
        """inverse for a basis element of the target that the caller knows."""
        m = len(y.q)
        if m >= self.n:
            return self.source._join(y.p, m - self.n)
        return self.source.element((y.p.steps + self.arc.steps[m:], 0))


def shift_iso(g: Graph, cycle: Cycle, v: str, w: str) -> ShiftIso:
    if v == w:
        raise InputError("basepoints must differ")
    for u in (v, w):
        if u not in cycle.vertex_set:
            raise InputError(f"{u!r} is not on the cycle")
    return ShiftIso(g, cycle.canonical(), v, w, cycle.arc(v, w))


@dataclass
class ShiftIsoReport:
    mapped: int = 0
    skipped: int = 0
    degree_shift_ok: bool = True
    injective: bool = True
    inverse_ok: bool = True
    intertwines_edges: bool = True
    intertwines_elements: bool = True
    failures: list = dc_field(default_factory=list)

    @property
    def passed(self):
        return (
            self.degree_shift_ok
            and self.injective
            and self.inverse_ok
            and self.intertwines_edges
            and self.intertwines_elements
        )


def verify_shift_iso(
    iso: ShiftIso,
    t: Truncation,
    rng: Optional[random.Random] = None,
    element_samples: int = 20,
    field=QQ,
) -> ShiftIsoReport:
    """Window verification: bijectivity, degree shift by -|arc|, and
    intertwining with the module action."""
    g = iso.g
    report = ShiftIsoReport()
    sys_w, sys_v = iso.source, iso.target
    window_w = list(sys_w.enumerate(t))
    images = {}
    for x in window_w:
        y = iso._forward(x)
        if not sys_v.in_window(sys_v.value(y), t):
            report.skipped += 1
            continue
        report.mapped += 1
        if y in images:
            report.injective = False
            report.failures.append(("injective", images[y], x))
        images[y] = x
        if y.degree != x.degree - iso.n:
            report.degree_shift_ok = False
            report.failures.append(("degree", x, y))
        if iso._inverse(y) != x:
            report.inverse_ok = False
            report.failures.append(("inverse", x, y))
    for y in sys_v.enumerate(t):
        x = iso._inverse(y)
        if sys_w.in_window(sys_w.value(x), t):
            if iso._forward(x) != y:
                report.inverse_ok = False
                report.failures.append(("surjective", y, x))

    refs = sys_w.edge_refs(t)
    for x in window_w:
        vx, vy = sys_w.value(x), sys_v.value(iso._forward(x))
        for e in refs:
            if not sys_w.member_vertex(vx, g.tgt(e)):
                continue
            lhs = iso._forward(sys_w.element(sys_w.sigma(e, vx)))
            rhs = sys_v.element(sys_v.sigma(e, vy))
            if lhs != rhs:
                report.intertwines_edges = False
                report.failures.append(("sigma", e, x))

    rng = rng or random.Random(0)
    paths = list(enumerate_paths(g, max(1, t.max_path_length // 2), t.bundle_sample))
    small_window = [
        x for x in window_w if len(x.p) + len(x.q) <= max(1, t.max_path_length // 2)
    ] or window_w
    for _ in range(element_samples):
        p = rng.choice(paths)
        q = rng.choice([q for q in paths if q.end == p.end])
        a = alg.monomial(g, p, q, field=field)
        x = rng.choice(small_window)
        m = ModuleVector.unit(x, field)
        try:
            lhs = _map_vector(iso, act(sys_w, a, m, t), t)
            rhs = act(sys_v, a, _map_vector(iso, m, t), t)
        except WindowOverflow:
            report.skipped += 1
            continue
        if lhs != rhs:
            report.intertwines_elements = False
            report.failures.append(("act", str(a), x))
    return report


def _map_vector(iso: ShiftIso, m: ModuleVector, t: Truncation) -> ModuleVector:
    terms, zero = {}, m.field.zero
    for x, k in m.terms.items():
        y = iso._forward(x)
        if not iso.target.in_window(iso.target.value(y), t):
            raise WindowOverflow(y)
        _add_term(terms, y, k, zero)
    return ModuleVector(m.field, terms)


# ---------------------------------------------------------------------------
# Ghost action and reduction identities
# ---------------------------------------------------------------------------


@dataclass
class IdentityReport:
    checked: int = 0
    failures: list = dc_field(default_factory=list)

    @property
    def passed(self):
        return not self.failures


def _windowed_pairs(sys: NcBranchingSystem, t: Truncation):
    """All (p, q) in Y within the window: r(p) = r(q), q inside the cycle."""
    qs = [sys._ghost(k) for k in range(t.max_path_length + 1)]
    paths = _paths_by_end(sys.graph, t, [q.end for q in qs])
    for q in qs:
        for p in paths[q.end]:
            yield p, q


def ghost_action_check(g: Graph, d: NcModule, t: Truncation, field=QQ) -> IdentityReport:
    """Check p* . red(p q*) = q* for cycle-rooted p, and the prepend identity
    red(e . red(p q*)) = red(e p q*), exhaustively over the window."""
    sys = _nc_system(g, d)
    report = IdentityReport()
    cycle_vs = sys.cycle.vertex_set
    for p, q in _windowed_pairs(sys, t):
        x = sys._canonical(p, len(q))
        if p.start in cycle_vs:
            ghost = alg.monomial(g, vertex_path(p.end), p, field=field)
            got = act(sys, ghost, ModuleVector.unit(x, field), t)
            want = ModuleVector.unit(ReducedPair(vertex_path(q.end), q), field)
            report.checked += 1
            if got != want:
                report.failures.append(("ghost_action", p, q, got))
        for e in g.in_refs(p.start, t.bundle_sample):
            step = _edge_path(g, e)
            lhs = sys._canonical(step.concat(x.p), len(x.q))
            rhs = sys._canonical(step.concat(p), len(q))
            report.checked += 1
            if lhs != rhs:
                report.failures.append(("reduction", e, p, q))
    return report


# ---------------------------------------------------------------------------
# Distinctness
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DistinctnessReport:
    same_annihilator: bool
    isomorphic: str  # yes | no | not_decided
    graded_isomorphic: str


def distinctness_report(g: Graph, d1: ModuleDescriptor, d2: ModuleDescriptor) -> DistinctnessReport:
    """Compare two module descriptors; isomorphism is decided only in the
    proved cases (different annihilators among them), everything else
    reports not_decided."""
    d1 = validate_module(g, d1)
    d2 = validate_module(g, d2)
    if _annihilator(g, d1) != _annihilator(g, d2):  # an isomorphism invariant
        return DistinctnessReport(False, "no", "no")
    if isinstance(d1, NcModule) and isinstance(d2, NcModule):
        if d1.cycle == d2.cycle:
            iso = "yes"
            graded = "yes" if d1.v == d2.v else "no"
        else:
            iso, graded = "no", "no"
        return DistinctnessReport(True, iso, graded)
    if isinstance(d1, NcModule) != isinstance(d2, NcModule):
        # The cyclic module is graded simple but not simple; Chen modules are
        # simple, so no isomorphism either way.
        return DistinctnessReport(True, "no", "no")
    kinds = {type(d1), type(d2)}
    if kinds == {VAlphaModule, InfEmitterModule}:
        emitter = d1 if isinstance(d1, InfEmitterModule) else d2
        if emitter.subtype == "infinite":
            return DistinctnessReport(True, "no", "no")
    return DistinctnessReport(True, "not_decided", "not_decided")
