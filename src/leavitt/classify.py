"""Decision procedures for graded prime, graded primitive, and primitive
ideals, plus the graded module witness for any graded primitive ideal.

Graded primitivity of I(H, S) is evaluated along two independent routes and
the results are required to agree:

* the direct condition: the complement of H is downwards directed (inner
  countable separation is automatic on finite graphs) and S is all of B_H,
  or misses exactly one breaking vertex u whose root is the whole
  complement;

* the case analysis: some base vertex v has the whole complement as its
  root, and v either emits nothing back into the complement (case b), sits
  on a cycle extreme in the complement (case c), or sits on an exclusive
  cycle (case d), with the same constraint on S, phrased through a cycle
  containing both u and a base vertex.

Where each part runs:

* once per H (``_HFacts``, kept per graph): the condition route's pairwise
  test that the complement is downwards directed, on the tree bitmasks of
  ``graphs._lattice``; the case route's base vertices, one lookup of the
  complement among the root bitmasks, and the case of the first of them.
  The two routes are asserted to agree on H there;

* once per u in B_H, on the first pair that drops u: the case of u, when u
  is a base vertex;

* once per pair: the test of S against B_H along both routes (S = B_H, or
  B_H less one u whose root is the complement, a base vertex), asserted to
  agree.

The strictly-decreasing-infinite-path case of the underlying theorem needs
infinitely many distinct vertices, so it cannot occur on the finite graphs
handled here; it is documented, never emitted.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .chen import (
    ModuleDescriptor,
    VAlphaModule,
    _annihilator,
    inf_emitter_module,
    irrational_rule,
    nc_module,
    sink_module,
)
from .errors import InputError, InternalCheckError
from .graphs import (
    Cycle,
    Graph,
    _classify_cycle,
    _first_cycle,
    _lattice,
    breaking_vertices,
    is_downwards_directed,
)
from .ideals import (
    AdmissiblePair,
    GradedIdeal,
    NonGradedPrimitiveIdeal,
    admissible_pair,
    is_proper,
    validate_descriptor,
)


@dataclass(frozen=True)
class BaseVertex:
    v: str
    kind: str  # no_edges_out | extreme_cycle | exclusive_cycle
    cycle: Optional[Cycle]


# The case that each kind of base vertex puts a graded primitive pair in.
_CASE_OF_KIND = {"no_edges_out": "3b", "extreme_cycle": "3c", "exclusive_cycle": "3d"}


def base_vertices(g: Graph, H) -> list:
    """All v outside H whose root is the whole complement of H: one lookup
    of the complement among the root bitmasks of ``graphs._lattice``."""
    lattice = _lattice(g)
    return list(lattice.by_root.get(lattice.mask(g.vertices - g.check_vertices(H)), ()))


def classify_base_vertex(g: Graph, comp: frozenset, v: str) -> BaseVertex:
    """Sort a base vertex v of the complement comp into its case: it emits
    nothing into comp (3b), or lies on an exclusive cycle (3d), or else on
    a cycle extreme in comp (3c).  A base vertex that fits none of them
    contradicts the classification and raises InternalCheckError.
    All cycles through v have one kind, as every vertex of comp reaches v
    (README, "Notes on semantics"), so the first one decides the case."""
    if not any(g.tgt(ref) in comp for ref in g.out_refs(v, 2)):
        return BaseVertex(v, "no_edges_out", None)
    c = _first_cycle(g, frozenset([v]), 2)
    if c is None:
        raise InternalCheckError(
            f"{v!r} emits into the complement but lies on no cycle"
        )
    # c lies in comp, since H is hereditary
    cl = _classify_cycle(g, c, comp)
    if cl.exclusive:
        return BaseVertex(v, "exclusive_cycle", c)
    if cl.extreme_in_V:
        return BaseVertex(v, "extreme_cycle", c)
    raise InternalCheckError(
        f"no cycle through base vertex {v!r} is exclusive or extreme"
    )


def find_base_vertex(g: Graph, H) -> Optional[BaseVertex]:
    """A vertex v with R(v) = complement of H, classified.

    Requires H hereditary and saturated with nonempty complement; returns
    None exactly when the complement is not downwards directed (on a finite
    graph a base vertex exists otherwise).
    """
    pair = admissible_pair(g, H)
    if not is_proper(g, pair):
        raise InputError("the complement of H is empty")
    return _h_facts(g, pair.H).base


@dataclass(frozen=True)
class SForm:
    kind: str  # full | minus
    u: Optional[str] = None

    def label(self):
        return "B_H" if self.kind == "full" else f"B_H - {{{self.u}}}"


@dataclass(frozen=True)
class GradedPrimitiveCase:
    """Outcome of the case analysis: one of the cases 3b/3c/3d with its
    witness data, or not graded primitive with a reason."""

    case: str  # 3b | 3c | 3d | none
    v: Optional[str] = None
    cycle: Optional[Cycle] = None
    s_form: Optional[SForm] = None
    reason: Optional[str] = None

    @property
    def graded_primitive(self) -> bool:
        return self.case != "none"


@dataclass(frozen=True)
class ClassificationRecord:
    pair: AdmissiblePair
    case: GradedPrimitiveCase
    graded_primitive: bool
    primitive: bool

    @property
    def graded_prime(self) -> bool:
        """Graded primitive means a downwards directed complement plus
        countable separation, which always holds on a finite graph: that is
        Rangaswamy's graded-prime criterion (J. Algebra 375, 2013).  The
        quotient route is the oracle in the verification suite and tests."""
        return self.graded_primitive


class _HFacts:
    """What the classification of a pair (H, S) reads off H alone, along
    both routes.  Built by ``_h_facts`` for a proper H known to be
    hereditary and saturated."""

    __slots__ = ("comp", "comp_mask", "B", "not_directed", "bases", "base", "at")

    def __init__(self, g: Graph, H: frozenset):
        lattice = _lattice(g)
        self.comp = comp = g.vertices - H
        self.comp_mask = lattice.mask(comp)
        self.B = breaking_vertices(g, H)
        # the condition route: why the complement is not downwards directed
        directed, pair = is_downwards_directed(g, comp)
        self.not_directed = None if directed else (
            f"complement not downwards directed (pair {pair})"
        )
        # the case route: the base vertices, the first of them classified
        self.bases = lattice.by_root.get(self.comp_mask, ())
        if directed != bool(self.bases):
            raise InternalCheckError(
                f"routes disagree on H = {{{','.join(sorted(H))}}}: "
                f"condition={directed}, base vertices={list(self.bases)}"
            )
        self.base = classify_base_vertex(g, comp, self.bases[0]) if self.bases else None
        self.at = {}  # u in B_H -> classify_base_vertex of u, filled per pair

    def condition(self, g: Graph, missing: frozenset) -> Optional[str]:
        """The direct condition for the S that misses ``missing`` of B_H:
        None when it holds, else the reason it fails."""
        if self.not_directed:
            return self.not_directed
        if len(missing) > 1:
            return "S misses more than one breaking vertex"
        for u in missing:
            if _lattice(g).root[u] != self.comp_mask:
                return f"root({u}) is not the whole complement"
        return None

    def cases(self, g: Graph, missing: frozenset) -> GradedPrimitiveCase:
        """The case analysis for the S that misses ``missing`` of B_H."""
        base = self.base
        if base is None:
            return GradedPrimitiveCase("none", reason="no base vertex (not downwards directed)")
        if len(missing) > 1:
            return GradedPrimitiveCase("none", reason="S misses more than one breaking vertex")
        case = _CASE_OF_KIND[base.kind]
        if not missing:
            return GradedPrimitiveCase(case, base.v, base.cycle, SForm("full"))
        (u,) = missing
        if case == "3b":
            return GradedPrimitiveCase("none", reason="case b admits no broken vertex to drop")
        # u must share a cycle with a base vertex; u itself qualifies exactly
        # when its root is the whole complement, that is when u is a base
        # vertex, and then any of its cycles witnesses the requirement.
        if u not in self.bases:
            return GradedPrimitiveCase("none", reason=f"{u} shares no cycle with a base vertex")
        # Anchor the witness at u, so the dropped vertex and the emitted
        # base vertex sit on the emitted cycle together.
        at_u = self.at.get(u)
        if at_u is None:
            at_u = self.at[u] = classify_base_vertex(g, self.comp, u)
        if at_u.kind != base.kind:
            raise InternalCheckError(f"no cycle through {u!r} matches case {case}")
        return GradedPrimitiveCase(case, u, at_u.cycle, SForm("minus", u))


def _h_facts(g: Graph, H: frozenset) -> _HFacts:
    """The facts of a proper, hereditary and saturated H, built once per
    graph."""
    memo = g._analysis.h_facts
    facts = memo.get(H)
    if facts is None:
        facts = memo[H] = _HFacts(g, H)
    return facts


def classify_graded_ideal(g: Graph, pair: AdmissiblePair) -> ClassificationRecord:
    """Full classification of a proper admissible pair.

    graded_primitive: both routes, asserted to agree; graded_prime is the
    same value on finite graphs (see ClassificationRecord.graded_prime).
    The parts of both routes that depend on H alone run once per H (see the
    module docstring); the test of S runs here, on every call.  A pair that
    is not graded primitive carries the direct condition's reason.
    primitive: graded primitive and not the exclusive-cycle case with S = B_H.
    No quotient graph is built.
    """
    pair = admissible_pair(g, pair.H, pair.S)
    if not is_proper(g, pair):
        raise InputError("improper pair (H is the whole vertex set)")

    facts = _h_facts(g, pair.H)
    missing = facts.B - pair.S
    reason = facts.condition(g, missing)
    case = facts.cases(g, missing)
    if (reason is None) != case.graded_primitive:
        raise InternalCheckError(
            f"routes disagree on {pair.label()}: condition={reason is None}, "
            f"case={case}"
        )
    if reason is not None:
        case = GradedPrimitiveCase("none", reason=reason)

    primitive = case.graded_primitive and not (
        case.case == "3d" and case.s_form.kind == "full"
    )
    return ClassificationRecord(pair, case, case.graded_primitive, primitive)


def is_graded_primitive_algebra(g: Graph) -> bool:
    """The whole algebra: downwards directed vertex set decides it (countable
    separation is automatic on finite graphs)."""
    return is_downwards_directed(g, g.vertices)[0]


def is_primitive(g: Graph, descriptor) -> bool:
    """Primitivity of an ideal descriptor.

    Non-graded descriptors are primitive by construction once their
    invariants check out; graded ones defer to the classification.
    """
    descriptor = validate_descriptor(g, descriptor)
    if isinstance(descriptor, NonGradedPrimitiveIdeal):
        return True
    return classify_graded_ideal(g, descriptor.pair).primitive


# ---------------------------------------------------------------------------
# Chen witnesses
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ChenWitness:
    """The graded module whose annihilator realizes a graded primitive pair.

    kind mirrors the case: relative_sink (3b), extreme_cycle (3c),
    exclusive_cycle (3d).  The strictly-decreasing kind cannot arise on
    finite graphs.
    """

    kind: str
    descriptor: ModuleDescriptor
    case: GradedPrimitiveCase


def chen_witness(g: Graph, record: ClassificationRecord) -> ChenWitness:
    """Emit the witness module for the pair of a graded primitive record
    (as classify_graded_ideal returns it) and verify its annihilator is
    exactly the pair."""
    if not record.graded_primitive:
        raise InputError(f"{record.pair.label()} is not graded primitive")
    case = record.case

    if case.case == "3b":
        v = case.v
        descriptor = sink_module(g, v) if g.is_sink(v) else inf_emitter_module(g, v)
        if not g.is_sink(v) and descriptor.subtype != "empty":
            raise InternalCheckError(
                f"case-b emitter {v!r} has returns into the complement"
            )
        kind = "relative_sink"
    elif case.case == "3d":
        if case.s_form.kind == "full":
            descriptor = nc_module(g, case.cycle, case.v)
        else:
            descriptor = inf_emitter_module(g, case.s_form.u)
        kind = "exclusive_cycle"
    else:  # 3c
        if case.s_form.kind == "full":
            c = case.cycle
            crossing = _first_cycle(g, c.vertex_set, 2, exclude=c)
            if crossing is None:
                raise InternalCheckError(
                    f"extreme cycle {c} has no crossing cycle"
                )
            rule = irrational_rule(g, c, crossing)
            descriptor = VAlphaModule(rule)
        else:
            descriptor = inf_emitter_module(g, case.s_form.u)
        kind = "extreme_cycle"

    ann = _annihilator(g, descriptor)  # the constructors above validated it
    if ann != GradedIdeal(record.pair):
        raise InternalCheckError(
            f"witness annihilator {ann.label()} differs from {record.pair.label()}"
        )
    return ChenWitness(kind, descriptor, case)
