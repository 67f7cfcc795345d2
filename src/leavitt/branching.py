"""Generic branching systems: axiom checking and the induced module action.

A branching system partitions a basis set into vertex fibers X_v and edge
fibers X_e with bijections sigma_e from X_{r(e)} onto X_e.  Concrete systems
own their (usually infinite) basis; the engine sees them through a bounded
enumeration window plus oracles on values, to which it converts each element
once, so every check here is a sound bounded verifier: violations come with
witness elements, and any action step that would leave the window raises
instead of silently truncating.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field as dc_field
from typing import Iterable, Iterator, Optional

from .algebra import AlgebraElement, Monomial
from .errors import InputError, MalformedSystem, WindowOverflow
from .fields import QQ
from .graphs import Graph


@dataclass(frozen=True)
class Truncation:
    """Finite window onto an infinite basis: path lengths up to
    max_path_length, bundle edges sampled at indices below bundle_sample."""

    max_path_length: int
    bundle_sample: int = 1

    def __post_init__(self):
        if self.max_path_length < 1 or self.bundle_sample < 1:
            raise InputError("truncation bounds must be >= 1")


class BranchingSystem:
    """Base class; concrete systems implement the oracle surface.

    ``enumerate`` yields basis elements; the other oracles take and return
    values, hashable and equal exactly when their elements are: ``value``
    maps an element to its value and ``element`` back, by default both the
    identity.  ``sigma``/``sigma_inv`` are total on their mathematical
    domains and may return values outside any window; the engine checks
    windows separately via ``in_window``.
    """

    graph: Graph
    graded: bool = False

    def enumerate(self, t: Truncation) -> Iterator:
        raise NotImplementedError

    def value(self, x):
        return x

    def element(self, x):
        return x

    def in_window(self, x, t: Truncation) -> bool:
        raise NotImplementedError

    def member_vertex(self, x, v: str) -> bool:
        raise NotImplementedError

    def member_edge(self, x, ref) -> bool:
        raise NotImplementedError

    def sigma(self, ref, x):
        raise NotImplementedError

    def sigma_inv(self, ref, x):
        raise NotImplementedError

    def degree(self, x) -> Optional[int]:
        return None

    def basis_element(self, m: Monomial, shift: int, t: Truncation):
        """The basis element that the selector MONOMIAL[@SHIFT] names."""
        raise InputError("this module family has no basis selectors")

    def edge_refs(self, t: Truncation) -> list:
        refs = []
        for v in self.graph.vertex_list:
            refs.extend(self.graph.out_refs(v, t.bundle_sample))
        return refs


def _add_term(terms: dict, x, k, zero):
    """Add k to the coefficient of x in place, dropping x when the sum is
    zero; a key that drops and returns moves to the end."""
    s = terms.get(x, zero) + k
    if s == 0:
        terms.pop(x, None)
    else:
        terms[x] = s


class ModuleVector:
    """Finitely supported map basis element -> nonzero scalar."""

    __slots__ = ("field", "terms")

    def __init__(self, field=QQ, terms=None):
        self.field = field
        self.terms = {}
        for x, k in dict(terms or {}).items():
            if k != 0:
                self.terms[x] = k

    @classmethod
    def unit(cls, x, field=QQ):
        return cls(field, {x: field.one})

    @property
    def is_zero(self):
        return not self.terms

    def support(self):
        return list(self.terms)

    def __eq__(self, other):
        return (
            isinstance(other, ModuleVector)
            and self.field == other.field
            and self.terms == other.terms
        )

    def __add__(self, other):
        if self.field != other.field:
            raise InputError("vectors live over different fields")
        terms = dict(self.terms)
        for x, k in other.terms.items():
            _add_term(terms, x, k, self.field.zero)
        return ModuleVector(self.field, terms)

    def __neg__(self):
        return ModuleVector(self.field, {x: -k for x, k in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def scale(self, k):
        k = self.field.coerce(k)
        return ModuleVector(self.field, {x: c * k for x, c in self.terms.items()})

    def degrees(self, sys: BranchingSystem) -> set:
        return {sys.degree(sys.value(x)) for x in self.terms}

    def is_homogeneous(self, sys: BranchingSystem) -> bool:
        return len(self.degrees(sys)) <= 1

    def __str__(self):
        if not self.terms:
            return "0"
        bits = []
        for x in sorted(self.terms, key=str):
            k = self.terms[x]
            bits.append(str(x) if k == 1 else f"{k} {x}")
        return " + ".join(bits)

    __repr__ = __str__


# ---------------------------------------------------------------------------
# Axiom checking
# ---------------------------------------------------------------------------


@dataclass
class AxiomReport:
    axiom1: bool = True
    axiom2: bool = True
    axiom3: bool = True
    axiom4: bool = True
    perfect: bool = True
    saturated: bool = True
    graded: bool = True
    violations: list = dc_field(default_factory=list)
    overflow_notes: list = dc_field(default_factory=list)

    @property
    def axioms_1_to_4(self) -> bool:
        return self.axiom1 and self.axiom2 and self.axiom3 and self.axiom4

    def note(self, which: str, witness):
        setattr(self, which, False)
        self.violations.append((which, witness))


def check_axioms(sys: BranchingSystem, t: Truncation) -> AxiomReport:
    """Evaluate axioms (1)-(4), perfect, saturated, and gradedness on the
    window.  Violations carry the witness basis element.

    Each element's value, fibers and degree are asked once; the per-ref
    checks read them by position.  Per edge ref e, in window order, x in
    X_r(e) maps forward to y = sigma(e, x) and back; a round trip that
    closes marks y paired, and the backward check at a paired y is skipped,
    as it would ask the same questions again.  Elements the enumeration
    yields are taken to lie in the window, and are the witnesses."""
    report = AxiomReport()
    elements = list(sys.enumerate(t))
    index = {}  # value -> position in window order
    for x in elements:
        y = sys.value(x)
        if y in index:
            raise MalformedSystem(f"duplicate basis element {x!r}")
        index[y] = len(index)
    n = len(index)

    refs = sys.edge_refs(t)
    g = sys.graph
    member_vertex, member_edge = sys.member_vertex, sys.member_edge
    at_vertex = {v: bytearray(n) for v in g.vertex_list}  # X_v as flags
    at_edge = {e: bytearray(n) for e in refs}  # X_e as flags

    for i, x in enumerate(index):
        vs = [v for v in g.vertex_list if member_vertex(x, v)]
        if len(vs) > 1:
            report.note("axiom1", (elements[i], vs))
        es = [e for e in refs if member_edge(x, e)]
        if len(es) > 1:
            report.note("axiom1", (elements[i], es))
        for v in vs:
            at_vertex[v][i] = 1
        for e in es:
            at_edge[e][i] = 1
            if g.src(e) not in vs:
                report.note("axiom2", (elements[i], e))
        if not vs:
            report.note("saturated", elements[i])
        # Axiom (4) and perfectness: fiber coverage at emitting vertices.
        if vs and not es:
            v = vs[0]
            if g.is_regular(v):
                report.note("axiom4", elements[i])
            elif g.is_infinite_emitter(v):
                report.note("perfect", elements[i])

    sigma, sigma_inv, in_window = sys.sigma, sys.sigma_inv, sys.in_window
    degree = sys.degree if sys.graded else None
    degrees = list(map(degree, index)) if degree else None
    overflow = report.overflow_notes
    for e in refs:
        rv = g.tgt(e)
        at_r, at_e = at_vertex[rv], at_edge[e]
        paired = bytearray(n)
        for i, x in enumerate(index):
            if at_r[i]:
                y = sigma(e, x)
                if in_window(y, t):
                    j = index.get(y)
                    if not (member_edge(y, e) if j is None else at_e[j]):
                        report.note("axiom3", (elements[i], e))
                    elif sigma_inv(e, y) != x:
                        report.note("axiom3", (elements[i], e, "inverse mismatch"))
                    elif j is not None:
                        paired[j] = 1
                    if degree and (degree(y) if j is None else degrees[j]) != degrees[i] + 1:
                        report.note("graded", (elements[i], e))
                else:
                    overflow.append((e, elements[i]))
            if at_e[i] and not paired[i]:
                x2 = sigma_inv(e, x)
                if in_window(x2, t):
                    k = index.get(x2)
                    if not (member_vertex(x2, rv) if k is None else at_r[k]):
                        report.note("axiom3", (elements[i], e, "inverse range"))
                    elif sigma(e, x2) != x:
                        report.note("axiom3", (elements[i], e, "inverse composition"))
                else:
                    overflow.append((e, elements[i]))

    if not sys.graded:
        report.graded = False
    return report


# ---------------------------------------------------------------------------
# Module action
# ---------------------------------------------------------------------------


def _act_monomial(sys: BranchingSystem, m: Monomial, x, t: Truncation):
    """Apply p q* to a basis value via the generator table; None means 0."""
    g = sys.graph
    y = x
    if m.q.is_vertex:
        if not sys.member_vertex(y, m.q.start):
            return None
    else:
        for ref in m.q.steps:
            if not sys.member_edge(y, ref):
                return None
            y = sys.sigma_inv(ref, y)
            if not sys.in_window(y, t):
                raise WindowOverflow(sys.element(y))
    if m.p.is_vertex:
        if not sys.member_vertex(y, m.p.start):
            return None
    else:
        for ref in reversed(m.p.steps):
            if not sys.member_vertex(y, g.tgt(ref)):
                return None
            y = sys.sigma(ref, y)
            if not sys.in_window(y, t):
                raise WindowOverflow(sys.element(y))
    return y


def act(
    sys: BranchingSystem, a: AlgebraElement, m: ModuleVector, t: Truncation
) -> ModuleVector:
    """Linear extension of the generator action to normal-form elements.

    Converts each basis element of m and of the result once.  Raises
    WindowOverflow (naming the escaping element) if any intermediate basis
    element leaves the window."""
    if a.graph != sys.graph:
        raise InputError("element and system live over different graphs")
    if a.field != m.field:
        raise InputError("element and vector fields differ")
    value, element = sys.value, sys.element
    vector = [(value(x), c) for x, c in m.terms.items()]
    terms, zero = {}, m.field.zero
    for mono, k in a.terms.items():
        for x, c in vector:
            y = _act_monomial(sys, mono, x, t)
            if y is not None:
                _add_term(terms, y, k * c, zero)
    return ModuleVector(m.field, {element(y): k for y, k in terms.items()})


@dataclass
class AnnihilationReport:
    checked: int = 0
    failures: list = dc_field(default_factory=list)
    overflows: list = dc_field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.failures


def annihilation_check(
    sys: BranchingSystem, gens: Iterable[AlgebraElement], t: Truncation
) -> AnnihilationReport:
    """Verify every generator kills every windowed basis element.

    Window escapes are recorded per element, not fatal; equality failures
    carry (generator, basis element, image)."""
    report = AnnihilationReport()
    window = None  # enumerated for the first generator, if there is one
    for a in gens:
        if window is None:
            window = list(sys.enumerate(t))
        for x in window:
            try:
                img = act(sys, a, ModuleVector.unit(x, a.field), t)
            except WindowOverflow as exc:
                report.overflows.append((str(a), x, exc.element))
                continue
            report.checked += 1
            if not img.is_zero:
                report.failures.append((str(a), x, img))
    return report


def degree_histogram(sys: BranchingSystem, t: Truncation) -> dict:
    """Counts of windowed basis elements per degree (graded systems only)."""
    if not sys.graded:
        raise InputError("system is not graded")
    counts = Counter(sys.degree(sys.value(x)) for x in sys.enumerate(t))
    return dict(sorted(counts.items()))
