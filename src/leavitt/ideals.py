"""Admissible pairs, their graded ideals, and the quotient graph compiler.

A pair (H, S) with H hereditary and saturated and S a set of breaking
vertices corresponds to the graded ideal generated by the vertices of H
together with ``v^H = v - sum(e e*)`` (sum over v's finitely many edges
escaping H) for v in S.  Membership is decided through the quotient graph:
the quotient algebra is graded isomorphic to the algebra of the quotient
graph, and an element lies in the ideal exactly when its image normalizes
to zero there.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

from . import algebra as alg
from .errors import InputError
from .fields import QQ
from .graphs import (
    Cycle,
    Graph,
    Path,
    _lattice,
    breaking_vertices,
    classify_cycle,
    root,
    vertex_path,
)


@dataclass(frozen=True)
class AdmissiblePair:
    H: frozenset
    S: frozenset

    def sort_key(self):
        return (sorted(self.H), sorted(self.S))

    def label(self):
        return pair_label(sorted(self.H), sorted(self.S))


def pair_label(h_names, s_names) -> str:
    """The label of the pair (H, S) from the names of H and of S, each in
    name order: "({h,..},{s,..})"."""
    return f"({{{','.join(h_names)}}},{{{','.join(s_names)}}})"


def admissible_pair(g: Graph, H, S=()) -> AdmissiblePair:
    H = frozenset(H)
    B = breaking_vertices(g, H)  # validates H: known ids, hereditary, saturated
    S = g.check_vertices(S)
    if not S <= B:
        raise InputError(f"S must be a subset of B_H = {sorted(B)}")
    return AdmissiblePair(H, S)


def is_proper(g: Graph, pair: AdmissiblePair) -> bool:
    return pair.H != g.vertices


def is_zero_pair(pair: AdmissiblePair) -> bool:
    return not pair.H and not pair.S


def enumerate_admissible_pairs(g: Graph) -> list:
    """Every (H, S), each exactly once, sorted by ``AdmissiblePair.sort_key``.

    Includes the zero pair and the improper pair H = E^0.  The sets H come
    from ``hereditary_saturated_sets``: Ganter's NextClosure on int bitmasks
    built once per graph, with the vertices numbered by decreasing |T(v)|,
    ties broken by name.  A vertex then comes before every vertex it reaches
    outside its strongly connected component, so its tree adds no earlier
    vertex outside that component, and few closures fail the lectic test.
    The cost follows the number of sets H, not the 2^n vertex subsets.  The
    sets S of each H are ``sorted_subsets`` of its B_H, so no pair list is
    sorted.
    """
    pairs = []
    for H, B in hereditary_saturated_sets(g):
        H = frozenset(H)
        pairs.extend(AdmissiblePair(H, frozenset(S)) for S in sorted_subsets(B))
    return pairs


def hereditary_saturated_sets(g: Graph):
    """Yield (H, B_H) as sorted tuples of vertex names for every hereditary
    saturated set H, in sorted-H order (see ``enumerate_admissible_pairs``).

    B_H of each yielded H is remembered in ``g._analysis.breaking``, where
    it counts as validated.
    """
    lattice = _lattice(g)
    n = len(lattice.order)
    H = lattice.closure(0)
    closed = [H]
    while H != (1 << n) - 1:
        # the successor of H in lectic order: the closure of (H below i) + i
        # for the largest position i outside H whose closure adds nothing
        # below i
        for i in range(n - 1, -1, -1):
            bit = 1 << i
            if H & bit:
                continue
            below = H & (bit - 1)
            C = lattice.closure(below | bit)
            if C & (bit - 1) == below:
                H = C
                closed.append(H)
                break
    found = sorted(
        (tuple(v for v, bit, _ in lattice.by_name if H & bit), lattice.breaking(H))
        for H in closed
    )
    breaking = g._analysis.breaking
    for names, B in found:
        breaking[frozenset(names)] = frozenset(B)
        yield names, B


def sorted_subsets(B: tuple) -> list:
    """Every subset of the sorted tuple B, as sorted tuples in
    lexicographic order: the order of S in ``AdmissiblePair.sort_key``."""
    return sorted(
        itertools.chain.from_iterable(itertools.combinations(B, k) for k in range(len(B) + 1))
    )


def ideal_generators(g: Graph, pair: AdmissiblePair, field=QQ) -> list:
    """The homogeneous generators: vertices of H and v^H for v in S."""
    pair = admissible_pair(g, pair.H, pair.S)
    gens = [alg.vertex(g, h, field) for h in sorted(pair.H)]
    for v in sorted(pair.S):
        gens.append(breaking_element(g, v, pair.H, field))
    return gens


def breaking_element(g: Graph, v: str, H, field=QQ) -> alg.AlgebraElement:
    """v^H = v - sum of e e* over v's edges into the complement of H."""
    H = g.check_vertices(H)
    out = alg.vertex(g, v, field)
    for e in g.out_edge_ids(v):
        if g.tgt(e) not in H:
            ee = alg.edge(g, e, field)
            out = out - ee * alg.star(ee)
    for b in g.out_bundle_ids(v):
        if g.tgt((b, 0)) not in H:
            raise InputError(
                f"{v!r} has infinitely many edges into the complement; v^H undefined"
            )
    return out


# ---------------------------------------------------------------------------
# Quotient graphs
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class QuotientGraph:
    graph: Graph
    pair: AdmissiblePair
    primed_vertices: dict  # original -> primed id
    primed_edges: dict  # original edge/bundle id -> primed id

    @property
    def inherited_vertices(self):
        return sorted(self.graph.vertices - set(self.primed_vertices.values()))


def _primed(name: str) -> str:
    return name + "'"


def quotient_graph(g: Graph, pair: AdmissiblePair) -> QuotientGraph:
    """Drop H and everything pointing into it; double each unbroken breaking
    vertex v into a sink v' that receives primed copies of v's incoming
    edges.

    Built once per graph and pair: a repeat call returns the same object, so
    the quotient's own derived structures are kept as well.
    """
    quotients = g._analysis.quotients
    key = (frozenset(pair.H), frozenset(pair.S))
    qg = quotients.get(key)
    if qg is None:
        qg = quotients[key] = _quotient_graph(g, admissible_pair(g, pair.H, pair.S))
    return qg


def _quotient_graph(g: Graph, pair: AdmissiblePair) -> QuotientGraph:
    H = pair.H
    unbroken = breaking_vertices(g, H) - pair.S

    vertices = [v for v in g.vertex_list if v not in H]
    primed_vertices = {v: _primed(v) for v in sorted(unbroken)}
    vertices.extend(primed_vertices.values())

    edges = {}
    bundles = {}
    primed_edges = {}
    for table, kept in ((g.edges, edges), (g.bundles, bundles)):
        for e, (src, tgt) in table.items():
            if tgt in H:
                continue
            kept[e] = (src, tgt)
            if tgt in unbroken:
                primed_edges[e] = _primed(e)
                kept[_primed(e)] = (src, primed_vertices[tgt])
    return QuotientGraph(Graph(vertices, edges, bundles), pair, primed_vertices, primed_edges)


def quotient_map(g: Graph, pair: AdmissiblePair, a: alg.AlgebraElement) -> alg.AlgebraElement:
    """The canonical surjection with kernel I(H, S), in quotient normal form.

    A monomial p q* with v = r(p) = r(q) maps to 0 when v is in H, to
    p q* + p' q'* when v is an unbroken breaking vertex, and to p q*
    otherwise.  Here p' is p with its last step, or its only vertex, moved
    onto the primed copy; the cross terms vanish because v v' = 0, and H is
    hereditary, so no earlier vertex of p or q lies in H.  The raw terms are
    normalized once, in the quotient graph.
    """
    if a.graph != g:
        raise InputError("element and pair live over different graphs")
    qg = quotient_graph(g, pair)
    H = qg.pair.H
    raw = []
    for m, k in a.terms.items():
        v = m.p.end
        if v in H:
            continue
        raw.append((m, k))
        if v in qg.primed_vertices:
            raw.append((alg.Monomial(_primed_end(qg, m.p), _primed_end(qg, m.q)), k))
    return alg.AlgebraElement(qg.graph, a.field, raw)


def _primed_end(qg: QuotientGraph, p: Path) -> Path:
    """p with its last step, or its only vertex, moved onto the primed copy."""
    end = qg.primed_vertices[p.end]
    if p.is_vertex:
        return vertex_path(end)
    last = p.steps[-1]
    if isinstance(last, tuple):
        last = (qg.primed_edges[last[0]], last[1])
    else:
        last = qg.primed_edges[last]
    return Path(p.vertices[:-1] + (end,), p.steps[:-1] + (last,))


def contains(g: Graph, pair: AdmissiblePair, a: alg.AlgebraElement) -> bool:
    """Ideal membership: true iff the quotient image normalizes to zero."""
    return quotient_map(g, pair, a).is_zero


# ---------------------------------------------------------------------------
# Laurent polynomials (for the non-graded primitive descriptors)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LaurentPolynomial:
    """Finitely supported map exponent -> rational coefficient, normalized so
    the lowest term is 1 * x^0 (units are k x^n)."""

    coeffs: tuple  # ((exponent, Fraction), ...) sorted by exponent

    @property
    def degree(self) -> int:
        return self.coeffs[-1][0] if self.coeffs else 0

    @property
    def is_unit_monomial(self) -> bool:
        return len(self.coeffs) <= 1

    def __str__(self):
        if not self.coeffs:
            return "0"
        bits = []
        for n, k in self.coeffs:
            var = "1" if n == 0 else ("x" if n == 1 else f"x^{n}")
            bits.append(f"{k}*{var}" if k != 1 or n == 0 else var)
        return " + ".join(bits)


def laurent(coeffs: dict) -> LaurentPolynomial:
    cleaned = {int(n): Fraction(k) for n, k in coeffs.items() if Fraction(k) != 0}
    if not cleaned:
        return LaurentPolynomial(())
    low = min(cleaned)
    unit = cleaned[low]
    shifted = tuple(sorted((n - low, k / unit) for n, k in cleaned.items()))
    return LaurentPolynomial(shifted)


def laurent_irreducible(f: LaurentPolynomial):
    """Irreducibility over Q[x, 1/x], decided exactly up to degree 3; a higher
    degree raises InputError.  Units and unit monomials are never irreducible."""
    if f.is_unit_monomial:
        return False
    d = f.degree
    coeffs = dict(f.coeffs)
    if d == 1:
        return True
    if d in (2, 3):
        # Reducible over Q exactly when a linear factor (rational root) exists;
        # root 0 is excluded since the lowest term is the constant 1.
        scale = math.lcm(*(k.denominator for _, k in f.coeffs))
        int_coeffs = {n: int(k * scale) for n, k in f.coeffs}
        p0, pl = abs(int_coeffs.get(0, 0)), abs(int_coeffs[d])
        for p in _divisors(p0):
            for q in _divisors(pl):
                for sign in (1, -1):
                    r = Fraction(sign * p, q)
                    if sum(k * r**n for n, k in f.coeffs) == 0:
                        return False
        return True
    raise InputError(f"cannot decide irreducibility at degree {d} > 3")


def _divisors(n: int):
    n = abs(n)
    if n == 0:
        return [1]
    return [d for d in range(1, n + 1) if n % d == 0]


# ---------------------------------------------------------------------------
# Ideal descriptors
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GradedIdeal:
    pair: AdmissiblePair

    def label(self):
        return f"I{self.pair.label()}"


@dataclass(frozen=True)
class NonGradedPrimitiveIdeal:
    """I(H, B_H) + <f(c)> for an exclusive cycle c with R(c^0) = E^0 - H."""

    pair: AdmissiblePair
    cycle: Cycle
    poly: LaurentPolynomial

    def label(self):
        return f"I{self.pair.label()} + <({self.poly})(c={self.cycle})>"


def validate_descriptor(g: Graph, d):
    if isinstance(d, GradedIdeal):
        admissible_pair(g, d.pair.H, d.pair.S)
        return d
    if isinstance(d, NonGradedPrimitiveIdeal):
        pair = admissible_pair(g, d.pair.H, d.pair.S)
        if pair.S != breaking_vertices(g, pair.H):
            raise InputError("non-graded primitive descriptors need S = B_H")
        comp = g.vertices - pair.H
        cls = classify_cycle(g, d.cycle, comp)
        if not cls.exclusive:
            raise InputError("the cycle must be exclusive")
        if root(g, d.cycle.vertex_set) != comp:
            raise InputError("need E^0 - H = R(c^0)")
        if not laurent_irreducible(d.poly):
            raise InputError("f must be irreducible and not a unit monomial")
        return d
    raise InputError(f"not an ideal descriptor: {d!r}")
