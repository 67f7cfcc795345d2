"""Named verification suites over the built-in catalog plus optional extra
graphs.  The CLI (verify, ann --verify) and the acceptance tests run these
checks with different budgets; every check returns a pass/fail result with a
witness detail, and runs are deterministic under a fixed seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

from . import algebra as alg
from . import chen
from . import classify as cls
from . import ideals as idl
from .branching import ModuleVector, Truncation, act, annihilation_check, check_axioms
from .catalog import CATALOG, random_graph
from .errors import InternalCheckError, WindowOverflow
from .fields import QQ
from .graphs import (
    Graph,
    _closure,
    breaking_vertices,
    classify_cycle,
    enumerate_cycles,
    enumerate_paths,
    has_condition_L,
    has_icsp,
    is_downwards_directed,
    is_hereditary,
    is_saturated,
    root,
    vertex_path,
)


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str = ""

    def line(self) -> str:
        status = "pass" if self.passed else "FAIL"
        tail = f"  [{self.detail}]" if self.detail else ""
        return f"{status}  {self.name}{tail}"


def _result(name, passed, detail=""):
    """A check's result; the detail is a failure witness, so a passing check
    drops it."""
    return CheckResult(name, bool(passed), "" if passed else detail)


def _results(failed: dict, **checks) -> list:
    """One result per check, in keyword order: ``checks`` maps each check's
    key to its name, and ``failed`` maps the key of each failing check to the
    witness of its last failure."""
    return [
        _result(name, key not in failed, failed.get(key, ""))
        for key, name in checks.items()
    ]


def _random_subset(rng, items):
    return frozenset(x for x in items if rng.random() < 0.5)


def path_index(g: Graph):
    """The paths of length at most 3 (two copies per bundle) and the same
    paths grouped by end vertex: what random_element draws from."""
    paths = list(enumerate_paths(g, 3, 2))
    by_end = {}
    for p in paths:
        by_end.setdefault(p.end, []).append(p)
    return paths, by_end


def random_element(g: Graph, rng, index) -> alg.AlgebraElement:
    """One or two random monomials p q* over the graph's path index."""
    paths, by_end = index
    out = alg.zero(g)
    for _ in range(rng.randint(1, 2)):
        p = rng.choice(paths)
        q = rng.choice(by_end[p.end])
        k = rng.choice([-2, -1, 1, 2, 3])
        out = out + alg.monomial(g, p, q, coeff=k)
    return out


def _random_homogeneous(g: Graph, rng, index):
    a = random_element(g, rng, index)
    parts = alg.homogeneous_components(a)
    if not parts:
        return alg.vertex(g, g.vertex_list[0])
    key = rng.choice(sorted(parts))
    return parts[key]


# ---------------------------------------------------------------------------
# Graph-core suite
# ---------------------------------------------------------------------------


def graph_core_suite(graphs: dict, rng: random.Random) -> list:
    failed = {}
    for name, g in graphs.items():
        for _ in range(20):
            V = _random_subset(rng, g.vertex_list)
            R = root(g, V)
            if not (V <= R and root(g, R) == R):
                failed["closure"] = f"{name}: V={sorted(V)}"
            W = _random_subset(rng, g.vertex_list)
            if V <= W and not root(g, V) <= root(g, W):
                failed["closure"] = f"{name}: monotonicity V={sorted(V)}"
            comp = g.vertices - R
            if not is_hereditary(g, comp)[0]:
                failed["complement"] = f"{name}: V={sorted(V)}"
            # Saturation of the complement needs every regular vertex of V
            # to return into the root (a regular member whose edges all
            # leave R(V) is a counterexample to the blanket claim); every
            # vertex set the module theory takes roots of returns.
            returns = all(
                any(g.tgt(e) in R for e in g.out_edge_ids(v))
                for v in V
                if g.is_regular(v)
            )
            if returns and not is_saturated(g, comp)[0]:
                failed["complement"] = f"{name}: V={sorted(V)}"

    for name, g in graphs.items():
        for c in enumerate_cycles(g, 2):
            cl = classify_cycle(g, c, g.vertices)
            if cl.exclusive:
                for v in c.sources:
                    on_cycle = [
                        ref
                        for ref in g.out_refs(v, 2)
                        if ref in set(c.steps)
                    ]
                    if len(on_cycle) != 1:
                        failed["exclusive"] = f"{name}: {c} at {v}"
            if cl.exclusive and cl.extreme_in_V:
                failed["exclusive"] = f"{name}: {c} both exclusive and extreme"

    for name, g in graphs.items():
        for pair in idl.enumerate_admissible_pairs(g):
            B = breaking_vertices(g, pair.H)
            emitters = {v for v in g.vertex_list if g.is_infinite_emitter(v)}
            if not B <= emitters - pair.H:
                failed["breaking"] = f"{name}: {pair.label()}"
            ok, witness = has_icsp(g, g.vertices - pair.H)
            if not ok or witness != g.vertices - pair.H:
                failed["icsp"] = f"{name}: {pair.label()}"
    return _results(
        failed,
        closure="root is a closure operator",
        complement="complement of a root is hereditary (saturated given returns)",
        exclusive="exclusive cycles have one cycle edge per vertex",
        breaking="breaking vertices are emitters outside H",
        icsp="icsp holds with witness C = V on finite graphs",
    )


# ---------------------------------------------------------------------------
# Term-engine suite
# ---------------------------------------------------------------------------


def term_engine_suite(graphs: dict, rng: random.Random) -> list:
    failed = {}
    for name, g in graphs.items():
        index = path_index(g)
        for _ in range(50):
            a = random_element(g, rng, index)
            b = random_element(g, rng, index)
            c = random_element(g, rng, index)
            if (a * b) * c != a * (b * c):
                failed["assoc"] = name
            if a * (b + c) != a * b + a * c:
                failed["distrib"] = name
            if alg.star(a * b) != alg.star(b) * alg.star(a):
                failed["invol"] = name
            if alg.star(alg.star(a)) != a:
                failed["invol"] = f"{name} (involution)"
            ha = _random_homogeneous(g, rng, index)
            hb = _random_homogeneous(g, rng, index)
            prod = ha * hb
            if not prod.is_zero and not ha.is_zero and not hb.is_zero:
                if not alg.is_homogeneous(prod) or alg.degree(prod) != alg.degree(
                    ha
                ) + alg.degree(hb):
                    failed["graded"] = name
            if alg.normal_form(a) != a:
                failed["congr"] = f"{name} (idempotence)"
            u = alg.local_unit(a)
            if u * a != a or a * u != a:
                failed["units"] = name

    # Degree-zero corner of the single-loop graph collapses to the vertex.
    g1 = graphs.get("G1")
    if g1 is not None:
        e = alg.edge(g1, "e")
        es = alg.star(e)
        for m in range(1, 4):
            x = e
            y = es
            for _ in range(m - 1):
                x = x * e
                y = y * es
            if x * y != alg.vertex(g1, "v"):
                failed["corner"] = f"G1: m={m}"
    return _results(
        failed,
        assoc="multiplication is associative",
        distrib="multiplication distributes over addition",
        invol="star is an anti-multiplicative involution",
        graded="degrees add under multiplication",
        congr="normal form is idempotent on built elements",
        units="finite vertex sums are local units",
        corner="single-loop degree-0 corner is spanned by the vertex",
    )


# ---------------------------------------------------------------------------
# Ideal-lattice suite
# ---------------------------------------------------------------------------


def ideal_suite(graphs: dict, rng: random.Random) -> list:
    failed = {}
    for name, g in graphs.items():
        pairs = idl.enumerate_admissible_pairs(g)
        for pair in pairs:
            for gen in idl.ideal_generators(g, pair):
                if not idl.contains(g, pair, gen):
                    failed["gen"] = f"{name} {pair.label()}"
            for v in sorted(g.vertices - pair.H):
                if idl.contains(g, pair, alg.vertex(g, v)):
                    failed["gen"] = f"{name} {pair.label()} vertex {v}"
            qg = idl.quotient_graph(g, pair)
            B = breaking_vertices(g, pair.H)
            want = len(g.vertices - pair.H) + len(B - pair.S)
            if len(qg.graph.vertices) != want:
                failed["quot"] = f"{name} {pair.label()}"
            # The quotient vertex set is downwards directed exactly when the
            # complement is and S misses at most one u with full root.
            lhs = is_downwards_directed(qg.graph, qg.graph.vertices)[0]
            comp = g.vertices - pair.H
            missing = B - pair.S
            rhs = is_downwards_directed(g, comp)[0] and (
                not missing
                or (len(missing) == 1 and root(g, [next(iter(missing))]) == comp)
            )
            if lhs != rhs:
                failed["lemma"] = f"{name} {pair.label()}"
        proper = [p for p in pairs if idl.is_proper(g, p)]
        index = path_index(g)
        for _ in range(5):
            pair = rng.choice(proper)
            gens = idl.ideal_generators(g, pair)
            if not gens:
                continue
            a = rng.choice(gens)
            b = rng.choice(gens)
            r = random_element(g, rng, index)
            for candidate in (a + b, r * a, a * r):
                if not idl.contains(g, pair, candidate):
                    failed["closure"] = f"{name} {pair.label()}"
    return _results(
        failed,
        gen="generators lie in their ideal; outside vertices do not",
        quot="quotient vertex counts match the construction",
        lemma="quotient downward-directedness matches the finite criterion",
        closure="membership is closed under the ideal operations",
    )


# ---------------------------------------------------------------------------
# Classification suite
# ---------------------------------------------------------------------------


# The Chen witness kind that each case of the classification calls for.
WITNESS_KIND = {"3b": "relative_sink", "3c": "extreme_cycle", "3d": "exclusive_cycle"}


def classification_suite(
    graphs: dict, rng: random.Random, random_graphs: int = 40
) -> list:
    pool = dict(graphs)
    for i in range(random_graphs):
        pool[f"random{i}"] = random_graph(rng)

    failed = {}
    pairs_seen = 0
    for name, g in pool.items():
        for pair in idl.enumerate_admissible_pairs(g):
            if not idl.is_proper(g, pair):
                continue
            pairs_seen += 1
            try:
                record = cls.classify_graded_ideal(g, pair)
            except InternalCheckError as exc:
                failed["agree"] = f"{name} {pair.label()}: {exc}"
                continue
            if record.graded_primitive:
                # The quotient route is the oracle of graded primality, which
                # the record reads off graded primitivity.
                qg = idl.quotient_graph(g, pair)
                if not is_downwards_directed(qg.graph, qg.graph.vertices)[0]:
                    failed["implication"] = f"{name} {pair.label()}"
                if record.primitive != has_condition_L(qg.graph, qg.graph.vertices)[0]:
                    failed["cond_l"] = f"{name} {pair.label()}"
                try:
                    w = cls.chen_witness(g, record)
                except InternalCheckError as exc:
                    failed["witness"] = f"{name} {pair.label()}: {exc}"
                else:
                    if w.kind != WITNESS_KIND[record.case.case]:
                        failed["witness"] = f"{name} {pair.label()}"
            # Case uniqueness: every base vertex classifies to the same case.
            bases = cls.base_vertices(g, pair.H)
            comp = g.vertices - pair.H
            kinds = set()
            for v in bases:
                try:
                    kinds.add(cls.classify_base_vertex(g, comp, v).kind)
                except InternalCheckError as exc:
                    failed["unique"] = f"{name} {pair.label()}: {exc}"
            if len(kinds) > 1:
                failed["unique"] = f"{name} {pair.label()}: {kinds}"
            # The base vertices read off the cached roots are exactly the
            # vertices whose root, searched afresh, is the whole complement.
            for v in sorted(comp):
                if (v in bases) != (_closure(g.predecessors, [v]) == comp):
                    failed["base"] = f"{name} {pair.label()}: {v}"
    return _results(
        failed,
        agree=f"direct condition and case analysis agree ({pairs_seen} pairs)",
        implication="graded primitive implies graded prime",
        cond_l="primitivity matches Condition (L) on the quotient",
        unique="the emitted case is unique",
        base="base vertices have the complement as root",
        witness="every graded-primitive pair has a matching module witness",
    )


# ---------------------------------------------------------------------------
# Module suite
# ---------------------------------------------------------------------------


def _exclusive_cycles(g: Graph) -> list:
    """The exclusive cycles of g (bundles sampled twice), in enumeration order."""
    return [c for c in enumerate_cycles(g, 2) if classify_cycle(g, c, g.vertices).exclusive]


def _nc_entries(graphs: dict, exclusive: dict) -> list:
    """The N_c descriptors of the given exclusive cycles, built as
    ``chen.nc_module`` would without classifying each cycle again."""
    return [
        (name, g, chen.NcModule(c.canonical(), v))
        for name, g in graphs.items()
        for c in exclusive[name]
        for v in sorted(c.vertex_set)
    ]


def catalog_nc_modules(graphs: dict) -> list:
    """Every N_c descriptor over the given graphs (exclusive cycles only)."""
    return _nc_entries(graphs, {name: _exclusive_cycles(g) for name, g in graphs.items()})


def catalog_modules(graphs: dict) -> list:
    """A representative descriptor list across all families: the N_c
    descriptors of ``catalog_nc_modules`` first, then per graph its sink and
    emitter modules and its V_[c^infinity] and irrational modules.  Each
    graph's cycles are classified once."""
    exclusive = {name: _exclusive_cycles(g) for name, g in graphs.items()}
    out = _nc_entries(graphs, exclusive)
    for name, g in graphs.items():
        for v in g.vertex_list:
            if g.is_sink(v):
                out.append((name, g, chen.sink_module(g, v)))
            elif g.is_infinite_emitter(v):
                out.append((name, g, chen.inf_emitter_module(g, v)))
        for c in exclusive[name]:
            spec = chen.rational_tail(g, vertex_path(c.base), c)
            out.append((name, g, chen.valpha_module(g, spec)))
        cycles = enumerate_cycles(g, 2)
        for c in cycles:
            crossing = [d for d in cycles if d != c and d.vertex_set & c.vertex_set]
            if crossing:
                rule = chen.irrational_rule(g, c, crossing[0])
                out.append((name, g, chen.valpha_module(g, rule)))
                break
    return out


def check_annihilator(g: Graph, d, ideal, t: Truncation, field=QQ):
    """Check the annihilator ``ideal`` of module ``d`` on the window t.

    Returns the AnnihilationReport of its generators and the vertices outside
    H that act as zero on the whole window (each should have a witness)."""
    system = chen.build_module(g, d)
    gens = chen.annihilator_generators(g, d, field, ideal)
    missing = [
        u
        for u in sorted(g.vertices - ideal.pair.H)
        if all(
            act(system, alg.vertex(g, u, field), ModuleVector.unit(x, field), t).is_zero
            for x in system.enumerate(t)
        )
    ]
    return annihilation_check(system, gens, t), missing


def recovery_sweep(g: Graph, d, t: Truncation, rng: random.Random, rounds: int) -> list:
    """Generator recovery on ``rounds`` random nonzero homogeneous vectors of
    the N_c module's window (one to three basis elements of one degree, with
    coefficients in {-3, -2, -1, 1, 2, 3}); returns the (vector, witness)
    pairs.  A failed recovery raises InternalCheckError or WindowOverflow."""
    system = chen._nc_system(g, d)
    by_degree: dict = {}
    for x in system.enumerate(t):
        by_degree.setdefault(system.degree(system.value(x)), []).append(x)
    degrees = sorted(by_degree)
    out = []
    for _ in range(rounds):
        elems = by_degree[rng.choice(degrees)]
        support = rng.sample(elems, k=min(len(elems), rng.randint(1, 3)))
        vec = ModuleVector(
            QQ, {x: Fraction(rng.choice([-3, -2, -1, 1, 2, 3])) for x in support}
        )
        out.append((vec, chen._recover(system, vec, t)))
    return out


def module_suite(graphs: dict, rng: random.Random, t: Truncation) -> list:
    failed = {}
    modules = catalog_modules(graphs)
    nc_modules = [(name, g, d) for name, g, d in modules if isinstance(d, chen.NcModule)]
    for name, g, d in nc_modules:
        sys = chen.build_module(g, d)
        rep = check_axioms(sys, t)
        if not (rep.axioms_1_to_4 and rep.perfect and rep.saturated and rep.graded):
            failed["nc"] = f"{name} {d.label()}: {rep.violations[:2]}"
        for p, q in chen._windowed_pairs(sys, t):
            x = sys.reduce(p, q)
            again = sys.reduce(x.p, x.q)
            if again != x or x.degree != len(p) - len(q):
                failed["red"] = f"{name} {d.label()}: ({p}, {q})"
        gar = chen.ghost_action_check(g, d, t)
        if not gar.passed:
            failed["ghost"] = f"{name} {d.label()}"

    for name, g, d in modules:
        rep, missing = check_annihilator(g, d, chen.annihilator(g, d), t)
        if not rep.passed:
            failed["ann"] = f"{name} {d.label()}: {rep.failures[:1]}"
        if missing:
            failed["nonmember"] = f"{name} {d.label()} vertices {missing}"

    g1 = graphs.get("G1")
    if g1 is not None:
        rep = check_axioms(chen.NaivePairSystem(g1, "v"), Truncation(3, 1))
        witness_v = chen.NaivePair(vertex_path("v"), vertex_path("v"))
        if not (
            rep.axiom1
            and rep.axiom2
            and rep.axiom3
            and not rep.axiom4
            and any(w == witness_v for kind, w in rep.violations if kind == "axiom4")
        ):
            failed["naive"] = f"G1: {rep.violations[:2]}"

    for name, g, d in nc_modules:
        try:
            recovery_sweep(g, d, t, rng, 40)
        except (InternalCheckError, WindowOverflow) as exc:
            failed["recovery"] = f"{name} {d.label()}: {exc}"

    for name, g, d in nc_modules:
        if d.v != min(d.cycle.vertex_set):
            continue
        union: dict = {}
        total = 0
        for v in sorted(d.cycle.vertex_set):
            sys_v = chen.build_module(g, chen.nc_module(g, d.cycle, v))
            for x in sys_v.enumerate(t):
                total += 1
                union[(x.p, x.q)] = union.get((x.p, x.q), 0) + 1
        if total != len(union) or any(count != 1 for count in union.values()):
            failed["partition"] = f"{name} {d.label()}"

    for name, g in graphs.items():
        for v in g.vertex_list:
            if not g.is_infinite_emitter(v):
                continue
            d = chen.inf_emitter_module(g, v)
            H = g.vertices - root(g, [v])
            in_b = v in breaking_vertices(g, H)
            if (d.subtype == "in_B_H") != in_b:
                failed["subtype"] = f"{name}: {v}"
    return _results(
        failed,
        nc="cyclic modules pass all axioms, perfect, saturated, graded",
        red="reduction is idempotent and degree-preserving",
        ghost="ghost-action and prepend-reduction identities hold",
        ann="annihilator generators annihilate the window",
        nonmember="vertices outside H act nontrivially somewhere",
        naive="the unreduced pair system fails exactly axiom (4) at the vertex",
        recovery="generator recovery succeeds on random homogeneous vectors",
        partition="basepoint systems partition the union system",
        subtype="emitter subtype matches breaking-vertex membership",
    )


# ---------------------------------------------------------------------------
# Runner
# ---------------------------------------------------------------------------


def run_suites(
    extra_graphs: dict = None,
    seed: int = 0,
    window: Truncation = Truncation(5, 2),
    random_graphs: int = 40,
) -> list:
    """Run every suite over the catalog (plus extra graphs); deterministic
    under the seed."""
    graphs = dict(CATALOG)
    if extra_graphs:
        graphs.update(extra_graphs)
    results = []
    results += graph_core_suite(graphs, random.Random(seed))
    results += term_engine_suite(graphs, random.Random(seed + 1))
    results += ideal_suite(graphs, random.Random(seed + 2))
    results += classification_suite(graphs, random.Random(seed + 3), random_graphs)
    results += module_suite(graphs, random.Random(seed + 4), window)
    return results
