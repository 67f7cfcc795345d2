"""The per-pair classification route: the oracle of ``classify``'s per-H facts.

This is how leavitt classified a pair (H, S) before it kept the facts that
depend on H alone once per graph and H.  Every pair reruns both routes
afresh, on frozensets:

* the direct condition (``evaluate_by_condition``): the complement is
  downwards directed, tested on the root of each member
  (``downwards_directed``, the frozenset ``graphs.is_downwards_directed``
  of before), and S is B_H or B_H less one u with R(u) the complement;

* the case analysis (``evaluate_by_cases``): the base vertices of the
  complement, read off the root of each vertex, the case of the first one,
  and the constraint on S.

``classify_graded_ideal`` asserts the two agree, and
``classification_record`` builds the ``classify`` report record from it.
Both must give what the production route gives, reasons included.
"""

import itertools

from leavitt import classify as cls
from leavitt.errors import InputError, InternalCheckError
from leavitt.graphs import _closure, breaking_vertices
from leavitt.ideals import admissible_pair, is_proper


def _root_of(g, v):
    """R(v) on frozensets, searched afresh."""
    return _closure(g.predecessors, [v])


def downwards_directed(g, V):
    """Every two members of V must reach a common member of V.

    Returns (True, None) or (False, (u, v)) for the first unboundable pair
    in name order.
    """
    V = g.check_vertices(V)
    reach = {v: _root_of(g, v) for v in V}  # reach[w] = who reaches w
    for u, v in itertools.combinations(sorted(V), 2):
        if not any(u in reach[w] and v in reach[w] for w in V):
            return False, (u, v)
    return True, None


def base_vertices(g, comp):
    """The v in comp whose root is comp, in name order."""
    return [v for v in sorted(comp) if _root_of(g, v) == comp]


def s_form(g, pair):
    """S = B_H, or B_H minus one vertex (identifying it); None otherwise."""
    B = breaking_vertices(g, pair.H)
    if pair.S == B:
        return cls.SForm("full")
    missing = B - pair.S
    if len(missing) == 1:
        return cls.SForm("minus", next(iter(missing)))
    return None


def evaluate_by_condition(g, pair):
    """Direct evaluation: downwards directed complement + S of the required
    shape (root(u) = complement in the minus case)."""
    comp = g.vertices - pair.H
    dd, dd_witness = downwards_directed(g, comp)
    if not dd:
        return False, f"complement not downwards directed (pair {dd_witness})"
    form = s_form(g, pair)
    if form is None:
        return False, "S misses more than one breaking vertex"
    if form.kind == "minus" and _root_of(g, form.u) != comp:
        return False, f"root({form.u}) is not the whole complement"
    return True, None


def evaluate_by_cases(g, pair):
    """Case analysis via a base vertex and its cycle classification."""
    comp = g.vertices - pair.H
    bases = base_vertices(g, comp)
    if not bases:
        return cls.GradedPrimitiveCase("none", reason="no base vertex (not downwards directed)")
    base = cls.classify_base_vertex(g, comp, bases[0])
    form = s_form(g, pair)
    if form is None:
        return cls.GradedPrimitiveCase("none", reason="S misses more than one breaking vertex")
    case = {"no_edges_out": "3b", "extreme_cycle": "3c", "exclusive_cycle": "3d"}[
        base.kind
    ]
    if form.kind == "minus":
        if case == "3b":
            return cls.GradedPrimitiveCase(
                "none", reason="case b admits no broken vertex to drop"
            )
        if form.u not in bases:
            return cls.GradedPrimitiveCase(
                "none",
                reason=f"{form.u} shares no cycle with a base vertex",
            )
        at_u = cls.classify_base_vertex(g, comp, form.u)
        if at_u.kind != base.kind:
            raise InternalCheckError(
                f"no cycle through {form.u!r} matches case {case}"
            )
        return cls.GradedPrimitiveCase(case, form.u, at_u.cycle, form)
    return cls.GradedPrimitiveCase(case, base.v, base.cycle, form)


def classify_graded_ideal(g, pair):
    """``classify.classify_graded_ideal``, both routes run per pair."""
    pair = admissible_pair(g, pair.H, pair.S)
    if not is_proper(g, pair):
        raise InputError("improper pair (H is the whole vertex set)")

    by_condition, reason = evaluate_by_condition(g, pair)
    case = evaluate_by_cases(g, pair)
    if by_condition != case.graded_primitive:
        raise InternalCheckError(
            f"routes disagree on {pair.label()}: condition={by_condition}, "
            f"case={case}"
        )
    if not case.graded_primitive and reason is not None:
        case = cls.GradedPrimitiveCase("none", reason=reason)

    primitive = case.graded_primitive and not (
        case.case == "3d" and case.s_form.kind == "full"
    )
    return cls.ClassificationRecord(pair, case, case.graded_primitive, primitive)


def classification_record(g, pair):
    """The ``classify`` report record of a proper pair, from the per-pair
    route."""
    record = classify_graded_ideal(g, pair)
    case = record.case
    out = {
        "pair": pair.label(),
        "graded_prime": record.graded_prime,
        "graded_primitive": record.graded_primitive,
        "primitive": record.primitive,
        "case": case.case,
    }
    if case.graded_primitive:
        out["base_vertex"] = case.v
        out["cycle"] = str(case.cycle) if case.cycle else None
        out["S_form"] = case.s_form.label()
        witness = cls.chen_witness(g, record)
        out["chen_witness"] = {"kind": witness.kind, "module": witness.descriptor.label()}
    else:
        out["reason"] = case.reason
    return out
