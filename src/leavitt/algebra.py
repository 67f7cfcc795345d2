"""Exact symbolic arithmetic in the Leavitt path algebra of a graph.

Elements are finite linear combinations of monomials p.q* (paths p, q with a
common range), kept in a canonical normal form: ghost/real collisions are
resolved eagerly during multiplication, and at each regular vertex the
product of its designated edge with that edge's ghost rewrites to
``v - sum(f f* for the other edges f at v)``.  One designated edge per
regular vertex makes the rewriting confluent, so support maps are a linear
basis and equality is map equality.  Bundles never trigger the vertex
rewrite (their sources are infinite emitters).

The integer grading is by len(p) - len(q).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Optional

from .errors import InputError
from .fields import QQ
from .graphs import (
    Graph,
    Path,
    _PathPair,
    _edge_path,
    enumerate_paths,
    exitless_cycle_vertices,
    make_path,
    ref_str,
    vertex_path,
)


class Monomial(_PathPair):
    """p.q* with r(p) = r(q); the star reverses q.  A value object with
    the shared body of ``graphs._PathPair``: equal to monomials only."""

    __slots__ = ()

    @property
    def degree(self) -> int:
        return len(self.p) - len(self.q)

    def star(self) -> "Monomial":
        return Monomial(self.q, self.p)

    def __str__(self):
        real = "" if self.p.is_vertex else " ".join(ref_str(s) for s in self.p.steps)
        ghost = " ".join(f"{ref_str(s)}*" for s in reversed(self.q.steps))
        if real and ghost:
            return f"{real} {ghost}"
        return real or ghost or self.p.start

    def sort_key(self):
        return (
            len(self.p) + len(self.q),
            tuple(ref_str(s) for s in self.p.steps),
            tuple(ref_str(s) for s in self.q.steps),
            self.p.start,
        )


class AlgebraElement:
    """A normal-form linear combination of monomials over one graph."""

    __slots__ = ("graph", "field", "terms")

    def __init__(self, graph: Graph, field=QQ, terms=None, _normalized=False):
        self.graph = graph
        self.field = field
        if terms is None:
            terms = {}
        if _normalized:
            self.terms = dict(terms)
        else:
            self.terms = _normalize(graph, terms)

    # -- basic structure ----------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def support(self):
        return sorted(self.terms, key=Monomial.sort_key)

    def coefficient(self, m: Monomial):
        return self.terms.get(m, self.field.zero)

    def __eq__(self, other):
        return (
            isinstance(other, AlgebraElement)
            and self.graph == other.graph
            and self.field == other.field
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def _compatible(self, other: "AlgebraElement"):
        if self.graph != other.graph or self.field != other.field:
            raise InputError("elements live over different graphs or fields")

    # -- linear operations ----------------------------------------------------

    def __add__(self, other: "AlgebraElement") -> "AlgebraElement":
        self._compatible(other)
        terms = dict(self.terms)
        for m, k in other.terms.items():
            s = terms.get(m, self.field.zero) + k
            if s == 0:
                terms.pop(m, None)
            else:
                terms[m] = s
        return AlgebraElement(self.graph, self.field, terms, _normalized=True)

    def __neg__(self) -> "AlgebraElement":
        return AlgebraElement(
            self.graph,
            self.field,
            {m: -k for m, k in self.terms.items()},
            _normalized=True,
        )

    def __sub__(self, other: "AlgebraElement") -> "AlgebraElement":
        return self + (-other)

    def scale(self, k) -> "AlgebraElement":
        k = self.field.coerce(k)
        if k == 1:
            return self  # no code mutates .terms after construction
        if k == 0:
            return AlgebraElement(self.graph, self.field, {}, _normalized=True)
        return AlgebraElement(
            self.graph,
            self.field,
            {m: c * k for m, c in self.terms.items()},
            _normalized=True,
        )

    def __mul__(self, other):
        if isinstance(other, AlgebraElement):
            return multiply(self, other)
        return self.scale(other)

    def __rmul__(self, other):
        return self.scale(other)

    def __str__(self):
        if not self.terms:
            return "0"
        bits = []
        for m in self.support():
            k = self.terms[m]
            coeff = "" if k == 1 else ("-" if k == -1 else f"{k} ")
            sign = "+"
            if coeff.startswith("-"):
                sign, coeff = "-", coeff[1:].lstrip()
                if coeff == "":
                    coeff = ""
            text = f"{coeff}{m}".strip()
            bits.append((sign, text))
        first_sign, first = bits[0]
        out = first if first_sign == "+" else f"-{first}"
        for sign, text in bits[1:]:
            out += f" {sign} {text}"
        return out

    __repr__ = __str__


# ---------------------------------------------------------------------------
# Construction and normal form
# ---------------------------------------------------------------------------


def _normalize(g: Graph, raw_terms) -> dict:
    """Apply the oriented vertex rewrite exhaustively and drop zeros."""
    out: dict = {}
    work = list(raw_terms.items() if isinstance(raw_terms, dict) else raw_terms)
    while work:
        mono, k = work.pop()
        if k == 0:
            continue
        p, q = mono.p, mono.q
        if (
            p.steps
            and q.steps
            and p.steps[-1] == q.steps[-1]
            and not isinstance(p.steps[-1], tuple)
        ):
            e = p.steps[-1]
            v = g.src(e)
            if g.is_regular(v) and g.designated_edge(v) == e:
                base_p, base_q = p.drop_last(), q.drop_last()
                work.append((Monomial(base_p, base_q), k))
                for f in g.out_edge_ids(v):
                    if f == e:
                        continue
                    tgt = g.tgt(f)
                    work.append(
                        (
                            Monomial(
                                Path(base_p.vertices + (tgt,), base_p.steps + (f,)),
                                Path(base_q.vertices + (tgt,), base_q.steps + (f,)),
                            ),
                            -k,
                        )
                    )
                continue
        s = out.get(mono)
        s = k if s is None else s + k
        if s == 0:
            out.pop(mono, None)
        else:
            out[mono] = s
    return out


def zero(g: Graph, field=QQ) -> AlgebraElement:
    return AlgebraElement(g, field, {}, _normalized=True)


def monomial(g: Graph, p: Path, q: Path, coeff=None, field=QQ) -> AlgebraElement:
    """The element coeff * p.q*, normalized.  Requires r(p) = r(q)."""
    p = make_path(g, p.start, p.steps)
    q = make_path(g, q.start, q.steps)
    if p.end != q.end:
        raise InputError(
            f"range mismatch: p ends at {p.end!r} but q ends at {q.end!r}"
        )
    k = field.one if coeff is None else field.coerce(coeff)
    return AlgebraElement(g, field, {Monomial(p, q): k})


def _unit(g: Graph, p: Path, q: Path, field) -> AlgebraElement:
    """p.q* for checked paths, in normal form like v v*, e r(e)*, r(e) e*."""
    return AlgebraElement(g, field, {Monomial(p, q): field.one}, _normalized=True)


def vertex(g: Graph, v: str, field=QQ) -> AlgebraElement:
    g.check_vertices([v])
    return _unit(g, vertex_path(v), vertex_path(v), field)


def edge(g: Graph, ref, field=QQ) -> AlgebraElement:
    p = _edge_path(g, ref)
    return _unit(g, p, vertex_path(p.end), field)


def ghost(g: Graph, ref, field=QQ) -> AlgebraElement:
    q = _edge_path(g, ref)
    return _unit(g, vertex_path(q.end), q, field)


def path_element(g: Graph, p: Path, field=QQ) -> AlgebraElement:
    return monomial(g, p, vertex_path(p.end), field=field)


def normal_form(a: AlgebraElement) -> AlgebraElement:
    """Re-run the rewrite; a fixed point of construction, so idempotent."""
    return AlgebraElement(a.graph, a.field, a.terms)


# ---------------------------------------------------------------------------
# Ring operations
# ---------------------------------------------------------------------------


def star(a: AlgebraElement) -> AlgebraElement:
    """The involution (k p q*)* = k q p*, extended linearly.

    p q* is reducible iff p and q end in the same designated edge, a test
    symmetric in p and q, so the star of a normal form is one."""
    return AlgebraElement(
        a.graph, a.field, {m.star(): k for m, k in a.terms.items()}, _normalized=True
    )


def _mul_monomials(m1: Monomial, m2: Monomial) -> Optional[Monomial]:
    """(p1 q1*)(p2 q2*) resolved by ghost/real cancellation; None when zero."""
    q1, p2 = m1.q, m2.p
    if q1.vertices[0] != p2.vertices[0]:
        return None
    s1, s2 = q1.steps, p2.steps
    n1, n2 = len(s1), len(s2)
    # The leftover path is spliced on without ``Path.concat``: its end check
    # cannot fire, because every monomial has r(p) = r(q), so r(p1) = r(q1)
    # is where the leftover of p2 starts (and r(q2) = r(p2) where that of q1
    # starts).
    if n1 == n2:
        return Monomial(m1.p, m2.q) if s1 == s2 else None
    if n1 < n2:
        # q1 is an initial segment of p2: the leftover path extends p1.
        if s2[:n1] != s1:
            return None
        p1 = m1.p
        return Monomial(Path(p1.vertices + p2.vertices[n1 + 1:], p1.steps + s2[n1:]), m2.q)
    # p2 is an initial segment of q1: the leftover ghost extends q2.
    if s1[:n2] != s2:
        return None
    q2 = m2.q
    return Monomial(m1.p, Path(q2.vertices + q1.vertices[n2 + 1:], q2.steps + s1[n2:]))


def multiply(a: AlgebraElement, b: AlgebraElement) -> AlgebraElement:
    a._compatible(b)
    raw = []
    for m1, k1 in a.terms.items():
        for m2, k2 in b.terms.items():
            m = _mul_monomials(m1, m2)
            if m is not None:
                raw.append((m, k1 * k2))
    return AlgebraElement(a.graph, a.field, raw)


def homogeneous_components(a: AlgebraElement) -> dict:
    """Partition by degree; values sum back to the input."""
    parts: dict = {}
    for m, k in a.terms.items():
        parts.setdefault(m.degree, {})[m] = k
    return {
        n: AlgebraElement(a.graph, a.field, terms, _normalized=True)
        for n, terms in sorted(parts.items())
    }


def is_homogeneous(a: AlgebraElement) -> bool:
    return len({m.degree for m in a.terms}) <= 1


def degree(a: AlgebraElement) -> Optional[int]:
    """The common degree of a nonzero homogeneous element."""
    degs = {m.degree for m in a.terms}
    if len(degs) != 1:
        raise InputError("element is zero or not homogeneous")
    return degs.pop()


def local_unit(a: AlgebraElement) -> AlgebraElement:
    """A finite sum of vertices u with u.a = a.u = a."""
    vs = set()
    for m in a.terms:
        vs.add(m.p.start)
        vs.add(m.q.start)
    out = zero(a.graph, a.field)
    for v in sorted(vs):
        out = out + vertex(a.graph, v, a.field)
    return out


# ---------------------------------------------------------------------------
# Homogeneous idempotents
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class IdempotentWitness:
    idempotent: AlgebraElement
    left: Monomial  # p q*
    right: Monomial  # r s*
    via_cycle: bool  # corner of an exitless cycle rather than a bare vertex


def _corner_power(m: Monomial, exitless: dict) -> Optional[tuple]:
    """Detect k * c^t in the corner of an exitless-cycle vertex.

    Normal forms there are pure powers: (c^i, v) or (v, c^j).  Returns the
    (vertex, cycle, t) triple or None.
    """
    p, q = m.p, m.q
    if p.start != q.start or p.start not in exitless:
        return None
    if p.steps and q.steps:
        return None
    c = exitless[p.start].rotate_to(p.start)
    walk = p if p.steps else q
    n = len(c)
    if walk.steps and (len(walk) % n or walk.steps != c.power(len(walk) // n).steps):
        return None
    t = len(p) - len(q)
    return (p.start, c, t)


def find_homogeneous_idempotent(
    a: AlgebraElement, bound: int, bundle_sample: int = 2
) -> Optional[IdempotentWitness]:
    """Bounded search for a homogeneous idempotent in the left ideal of a.

    Looks for paths p, q, r, s of length <= bound with (p q*) a (r s*) equal
    to a scalar multiple of a vertex, or to a cycle power in the corner of a
    vertex on an exitless cycle; either find yields an idempotent by the
    constructive argument.  Returns None when the bound is exhausted (the
    existence result gives no effective bound).
    """
    if a.is_zero or not is_homogeneous(a):
        raise InputError("need a nonzero homogeneous element")
    g = a.graph
    exitless = exitless_cycle_vertices(g)
    paths = list(enumerate_paths(g, bound, bundle_sample))
    by_end: dict = {}
    for p in paths:
        by_end.setdefault(p.end, []).append(p)
    pairs = [
        Monomial(p, q)
        for end, group in sorted(by_end.items())
        for p, q in itertools.product(group, group)
    ]
    pairs.sort(key=Monomial.sort_key)

    for left in pairs:
        la = monomial(g, left.p, left.q, field=a.field) * a
        if la.is_zero:
            continue
        for right in pairs:
            x = la * monomial(g, right.p, right.q, field=a.field)
            if len(x.terms) != 1:
                continue
            (m, k), = x.terms.items()
            eps = None
            if m.p.is_vertex and m.q.is_vertex:
                # x = k v: eps = k^{-1} (r s*) (p q*) a
                rs = monomial(g, right.p, right.q, field=a.field)
                pq = monomial(g, left.p, left.q, field=a.field)
                eps = (rs * pq * a).scale(1 / k)
            else:
                power = _corner_power(m, exitless)
                if power is not None:
                    v, c, t = power
                    # x = k c^t: eps = k^{-1} (r s*) c^{-t} (p q*) a
                    if t >= 0:
                        c_inv = monomial(g, vertex_path(v), c.power(t // len(c)), field=a.field)
                    else:
                        c_inv = monomial(g, c.power(-t // len(c)), vertex_path(v), field=a.field)
                    rs = monomial(g, right.p, right.q, field=a.field)
                    pq = monomial(g, left.p, left.q, field=a.field)
                    eps = (rs * c_inv * pq * a).scale(1 / k)
            if eps is None or eps.is_zero:
                continue
            if eps * eps == eps and is_homogeneous(eps):
                return IdempotentWitness(eps, left, right, not m.p.is_vertex or not m.q.is_vertex)
    return None
