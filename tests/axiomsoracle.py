"""The per-call axiom check: the oracle of ``branching.check_axioms``.

This is how leavitt checked a branching system on a window before the check
read each element's fibers once and checked each sigma/sigma_inv round trip
once.  Every question goes to the system's oracles afresh:

* per element, its vertex and edge fibers (axioms (1), (2) and (4),
  perfectness and saturation), with axiom (2) asked of ``member_vertex``
  again;

* per edge ref e and element x in window order, sigma(e, x) for x in
  X_r(e) (axiom (3) and gradedness) and then sigma_inv(e, x) for x in X_e,
  so each round trip inside the window is checked from both ends.

``check_axioms`` must return a report equal to this one field for field,
both lists in the same order.
"""

from leavitt.branching import AxiomReport
from leavitt.errors import MalformedSystem


def check_axioms(sys, t):
    report = AxiomReport()
    window = []
    seen = set()
    for x in sys.enumerate(t):
        if x in seen:
            raise MalformedSystem(f"duplicate basis element {x!r}")
        seen.add(x)
        window.append(x)

    refs = sys.edge_refs(t)
    g = sys.graph

    for x in window:
        vs = [v for v in g.vertex_list if sys.member_vertex(x, v)]
        if len(vs) > 1:
            report.note("axiom1", (x, vs))
        es = [e for e in refs if sys.member_edge(x, e)]
        if len(es) > 1:
            report.note("axiom1", (x, es))
        for e in es:
            if not sys.member_vertex(x, g.src(e)):
                report.note("axiom2", (x, e))
        if not vs:
            report.note("saturated", x)
        if vs and not es:
            v = vs[0]
            if g.is_regular(v):
                report.note("axiom4", x)
            elif g.is_infinite_emitter(v):
                report.note("perfect", x)

    for e in refs:
        rv = g.tgt(e)
        for x in window:
            if sys.member_vertex(x, rv):
                y = sys.sigma(e, x)
                if sys.in_window(y, t):
                    if not sys.member_edge(y, e):
                        report.note("axiom3", (x, e))
                    elif sys.sigma_inv(e, y) != x:
                        report.note("axiom3", (x, e, "inverse mismatch"))
                    if sys.graded and sys.degree(y) != sys.degree(x) + 1:
                        report.note("graded", (x, e))
                else:
                    report.overflow_notes.append((e, x))
            if sys.member_edge(x, e):
                x2 = sys.sigma_inv(e, x)
                if sys.in_window(x2, t):
                    if not sys.member_vertex(x2, rv):
                        report.note("axiom3", (x, e, "inverse range"))
                    elif sys.sigma(e, x2) != x:
                        report.note("axiom3", (x, e, "inverse composition"))
                else:
                    report.overflow_notes.append((e, x))

    if not sys.graded:
        report.graded = False
    return report
