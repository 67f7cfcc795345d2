"""The four per-family branching systems: the oracle of ``chen._TailSystem``.

This is how leavitt built the N_c, sink/emitter, rational-tail and
irrational-tail systems before one shared body held their fibers, sigma,
sigma_inv, window, degree and enumeration rules.  Each class wrote its own
copy of those rules.  The classes are moved with their rules unchanged,
less their type hints, their basis selectors and ``basis_vertex``, which the
oracle does not compare.
``RationalTailSpec.first_edge`` and ``Cycle.edge_from``, which only the
rational system used, are inlined as ``_first_edge``.  The irrational
rule's locator, which only this oracle uses, is kept here as ``edge_at``
and ``vertex_at``.  The old systems' values are their elements.

The path-based reduction calculus that ``chen`` kept beside the systems
is kept here too, so that the oracle shares no reduction code with the
systems it checks: ``red`` with its cycle check, ``_strip``, and
``_windowed_pairs``, which walks each ghost with ``Cycle.walk_from``.

Built on the same descriptor, the new and the old system must give the same
window in the same order and the same answer to every oracle question.
"""

from leavitt import chen
from leavitt.branching import BranchingSystem
from leavitt.chen import ReducedPair, TailElement, _fits, _paths_by_end
from leavitt.errors import InputError
from leavitt.graphs import (
    RationalTailSpec,
    _edge_path,
    enumerate_paths,
    rational_tail,
    vertex_path,
)


def _check_inside_cycle(cycle_at_v, q):
    if q.start != cycle_at_v.base:
        raise InputError(f"q must start at the basepoint {cycle_at_v.base!r}")
    if q.steps != cycle_at_v.walk_from(cycle_at_v.base, len(q)).steps:
        raise InputError("q escapes the cycle")


def red(g, cycle, v, p, q):
    """The unique reduced representative of p.q*: strip matching final edges."""
    cycle_at_v = cycle.rotate_to(v)
    _check_inside_cycle(cycle_at_v, q)
    if p.end != q.end:
        raise InputError("p and q must share their range")
    return _strip(p, q)


def _strip(p, q):
    """red for a pair the caller knows satisfies its requirements."""
    while p.steps and q.steps and p.steps[-1] == q.steps[-1]:
        p = p.drop_last()
        q = q.drop_last()
    return ReducedPair(p, q)


def _windowed_pairs(g, d, t):
    """All (p, q) in Y within the window: r(p) = r(q), q inside the cycle."""
    cycle_at_v = d.cycle.rotate_to(d.v)
    qs = [cycle_at_v.walk_from(d.v, k) for k in range(t.max_path_length + 1)]
    paths = _paths_by_end(g, t, [q.end for q in qs])
    for q in qs:
        for p in paths[q.end]:
            yield p, q


def _locate(rule, i):
    """(cycle, index): edge i of the rule path, 1-indexed, is
    cycle.steps[index] and starts at cycle.sources[index]."""
    nc, nd = len(rule.c), len(rule.d)
    k = 1
    while i > k * (nc + nd):
        i -= k * (nc + nd)
        k += 1
    if i <= k * nc:
        return rule.c, (i - 1) % nc
    return rule.d, (i - k * nc - 1) % nd


def edge_at(rule, i):
    """The i-th edge of the rule path, 1-indexed."""
    if i < 1:
        raise InputError("edge positions are 1-indexed")
    cycle, j = _locate(rule, i)
    return cycle.steps[j]


def vertex_at(rule, m):
    """The vertex of the rule path after m edges (the source of edge m + 1)."""
    cycle, j = _locate(rule, m + 1)
    return cycle.sources[j]


def _first_edge(x: RationalTailSpec):
    if x.prefix.steps:
        return x.prefix.steps[0]
    return x.cycle.steps[x.cycle.sources.index(x.cycle.base)]


class NcBranchingSystem(BranchingSystem):
    """Reduced pairs p.q* with the reduction-twisted prepend action."""

    graded = True

    def __init__(self, g, cycle, v):
        self.graph = g
        self.cycle = cycle.canonical()
        self.v = v
        self._cycle_edges = set(self.cycle.steps)

    def enumerate(self, t):
        for p, q in _windowed_pairs(self.graph, chen.NcModule(self.cycle, self.v), t):
            if p.steps and q.steps and p.steps[-1] == q.steps[-1]:
                continue
            yield ReducedPair(p, q)

    def in_window(self, x, t):
        return len(x.q) <= t.max_path_length and _fits(x.p, t)

    def member_vertex(self, x, v):
        return x.p.start == v

    def member_edge(self, x, ref):
        if ref in self._cycle_edges:
            return x.p.start == self.graph.src(ref)
        return bool(x.p.steps) and x.p.steps[0] == ref

    def sigma(self, ref, x):
        return _strip(_edge_path(self.graph, ref).concat(x.p), x.q)

    def sigma_inv(self, ref, x):
        if x.p.steps:
            if x.p.steps[0] != ref:
                raise InputError("element is not in this edge fiber")
            return _strip(x.p.drop_first(), x.q)
        # pure ghost q*: only the cycle edge at r(q) acts, growing the ghost
        if ref not in self._cycle_edges or self.graph.src(ref) != x.q.end:
            raise InputError("element is not in this edge fiber")
        step = _edge_path(self.graph, ref)
        return ReducedPair(vertex_path(step.end), x.q.concat(step))

    def degree(self, x):
        return x.degree


class PathEndingSystem(BranchingSystem):
    """Paths ending at a fixed vertex: the sink and infinite-emitter modules."""

    graded = True

    def __init__(self, g, v):
        self.graph = g
        self.v = v

    def enumerate(self, t):
        yield from enumerate_paths(
            self.graph, t.max_path_length, t.bundle_sample, end=self.v
        )

    def in_window(self, x, t):
        return _fits(x, t)

    def member_vertex(self, x, v):
        return x.start == v

    def member_edge(self, x, ref):
        return bool(x.steps) and x.steps[0] == ref

    def sigma(self, ref, x):
        return _edge_path(self.graph, ref).concat(x)

    def sigma_inv(self, ref, x):
        if not x.steps or x.steps[0] != ref:
            raise InputError("element is not in this edge fiber")
        return x.drop_first()

    def degree(self, x):
        return len(x)


class RationalTailSystem(BranchingSystem):
    """Paths tail-equivalent to c^infinity, in canonical (prefix, rotation)
    form.  A branching system but not graded."""

    graded = False

    def __init__(self, g, spec):
        self.graph = g
        self.spec = spec
        self.cycle = spec.cycle

    def enumerate(self, t):
        anchors = sorted(self.cycle.vertex_set)
        paths = _paths_by_end(self.graph, t, anchors)
        for w in anchors:
            cyc_w = self.cycle.rotate_to(w)
            entering = cyc_w.edge_into(w)
            for p in paths[w]:
                if p.steps and p.steps[-1] == entering:
                    continue
                yield RationalTailSpec(p, cyc_w)

    def in_window(self, x, t):
        return _fits(x.prefix, t)

    def member_vertex(self, x, v):
        return x.prefix.start == v

    def member_edge(self, x, ref):
        return _first_edge(x) == ref

    def sigma(self, ref, x):
        step = _edge_path(self.graph, ref)
        return rational_tail(self.graph, step.concat(x.prefix), x.cycle)

    def sigma_inv(self, ref, x):
        if _first_edge(x) != ref:
            raise InputError("element is not in this edge fiber")
        if x.prefix.steps:
            return rational_tail(self.graph, x.prefix.drop_first(), x.cycle)
        nxt = self.graph.tgt(ref)
        return RationalTailSpec(vertex_path(nxt), x.cycle.rotate_to(nxt))


class IrrationalTailSystem(BranchingSystem):
    graded = True

    def __init__(self, g, rule):
        self.graph = g
        self.rule = rule
        self._edges = [None]  # _edges[i] = edge_at(rule, i), as far as asked
        self._word = rule.edge_word()

    def _edge_at(self, i):
        """edge_at(rule, i), read once per system off one pass of the word."""
        edges = self._edges
        if i < 1:
            return edge_at(self.rule, i)  # which raises: positions start at 1
        while len(edges) <= i:
            edges.append(next(self._word))
        return edges[i]

    def _vertex_at(self, m):
        """vertex_at(rule, m) for m >= 0: the source of edge m + 1."""
        return self.graph.src(self._edge_at(m + 1))

    def _canonical(self, q, m):
        while m >= 1 and q.steps and q.steps[-1] == self._edge_at(m):
            q = q.drop_last()
            m -= 1
        return TailElement(q, m)

    def enumerate(self, t):
        anchors = [self._vertex_at(m) for m in range(t.max_path_length + 1)]
        paths = _paths_by_end(self.graph, t, anchors)
        for m, anchor in enumerate(anchors):
            for q in paths[anchor]:
                if m >= 1 and q.steps and q.steps[-1] == self._edge_at(m):
                    continue
                yield TailElement(q, m)

    def in_window(self, x, t):
        return x.m <= t.max_path_length and _fits(x.q, t)

    def member_vertex(self, x, v):
        return x.q.start == v

    def member_edge(self, x, ref):
        if x.q.steps:
            return x.q.steps[0] == ref
        return self._edge_at(x.m + 1) == ref

    def sigma(self, ref, x):
        return self._canonical(_edge_path(self.graph, ref).concat(x.q), x.m)

    def sigma_inv(self, ref, x):
        if not self.member_edge(x, ref):
            raise InputError("element is not in this edge fiber")
        if x.q.steps:
            return self._canonical(x.q.drop_first(), x.m)
        return TailElement(vertex_path(self._vertex_at(x.m + 1)), x.m + 1)

    def degree(self, x):
        return len(x.q) - x.m


def old_system(new):
    """The old system built on the same descriptor as the new system ``new``."""
    g = new.graph
    if isinstance(new, chen.NcBranchingSystem):
        return NcBranchingSystem(g, new.cycle, new.v)
    if isinstance(new, chen.PathEndingSystem):
        return PathEndingSystem(g, new.v)
    if isinstance(new, chen.RationalTailSystem):
        return RationalTailSystem(g, new.spec)
    return IrrationalTailSystem(g, new.rule)
