"""The four benchmark workloads: their inputs, their ops and the checks on
every op's output.

A workload's ``setup(lv, seed, workdir)`` imports nothing itself: ``lv`` holds
the freshly imported leavitt modules.  It writes the seeded inputs as graph
files under ``workdir``, parses them through ``graphio`` and returns a list of
``Op``.  ``Op.run`` is the timed call; ``Op.check`` turns its result into the
canonical value whose digest must match ``reference.json`` and raises
``OracleError`` when a built-in oracle fails.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable

import inputs


class OracleError(Exception):
    """An op's output broke one of the benchmark's built-in oracles."""


@dataclass
class Op:
    key: str  # reference digest key, unique within the workload
    run: Callable[[], Any]
    check: Callable[[Any], Any]


@dataclass
class Counters:
    """Counts read from the reports the module ops return."""

    axiom_overflow_notes: int = 0
    annihilation_checked: int = 0
    annihilation_overflows: int = 0
    annihilation_vacuous: int = 0


# ---------------------------------------------------------------------------
# CLI ops
# ---------------------------------------------------------------------------


def cli_op(lv, key: str, argv: list, project: Callable[[dict], Any]) -> Op:
    """One in-process ``leavitt`` command with its output captured."""

    def run():
        out, err = io.StringIO(), io.StringIO()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = lv.cli.main(argv)
        except SystemExit as exc:  # argparse rejects the arguments
            code = exc.code
        return code, out.getvalue(), err.getvalue()

    def check(result):
        code, out, err = result
        if code != 0:
            raise OracleError(f"exit code {code}: {err.strip()[:200]}")
        return project(json.loads(out))

    return Op(key, run, check)


def _pick(d: dict, keys) -> dict:
    return {k: d.get(k) for k in keys}


def project_pairs(report: dict):
    keys = ("label", "H", "S", "B_H", "proper", "zero")
    return {"count": report["count"], "pairs": [_pick(p, keys) for p in report["pairs"]]}


def project_classify(report: dict):
    keys = (
        "pair", "graded_prime", "graded_primitive", "primitive", "case",
        "base_vertex", "cycle", "S_form", "chen_witness", "reason",
    )
    return [_pick(r, keys) for r in report["records"]]


def project_ann(report: dict):
    out = _pick(report, ("module", "annihilator"))
    out["verify"] = _pick(
        report["verify"],
        ("checked", "overflow_skips", "failures", "nonmembership_witnesses", "passed"),
    )
    if not out["verify"]["passed"] or out["verify"]["failures"]:
        raise OracleError(f"annihilation check failed: {out['verify']}")
    return out


def project_verify(report: dict):
    if not report.get("passed"):
        failed = [c["name"] for c in report["checks"] if not c["passed"]]
        raise OracleError(f"verify suites failed: {failed}")
    return {
        "seed": report["seed"],
        "checks": [[c["name"], c["passed"]] for c in report["checks"]],
    }


def write_graph(workdir: str, name: str, desc) -> str:
    path = os.path.join(workdir, f"{name}.txt")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(inputs.graph_text(desc))
    return path


def parse_file(lv, path: str):
    with open(path, "r", encoding="utf-8") as fh:
        return lv.graphio.parse_graph_document(fh.read())


def _sample(seed, salt: int, population: int, k: int) -> list:
    """k pool indices drawn by the seed; the whole pool when seed is None
    (which is how ``make_reference.py`` covers every input)."""
    if seed is None:
        return list(range(population))
    return sorted(random.Random(seed * 7919 + salt).sample(range(population), k))


def _order(ops: list, seed) -> list:
    """The pass order: fixed by the seed, the same on every pass."""
    if seed is not None:
        random.Random(seed).shuffle(ops)
    return ops


# ---------------------------------------------------------------------------
# pairs-chain
# ---------------------------------------------------------------------------

# Chains are the fixed large inputs; forests are the seeded batch.  Every
# workload runs at least 100 ops per pass, so at least 10 lie beyond p90, and
# the seed picks three quarters of each pool, so the mix barely moves.
CHAIN_SIZES = (13, 14)
FOREST_POOL, FOREST_PICK, FOREST_SIZE, FOREST_BASE = 128, 96, 8, 1_000


def setup_pairs_chain(lv, seed: int, workdir: str, counters: Counters) -> list:
    ops = []
    for n in CHAIN_SIZES:
        path = write_graph(workdir, f"chain{n}", inputs.looped_chain(n))
        parse_file(lv, path)
        ops.append(cli_op(lv, f"chain{n}:pairs", ["--json", "pairs", path], project_pairs))
        ops.append(cli_op(
            lv, f"chain{n}:classify", ["--json", "classify", path, "--all"], project_classify
        ))
    for i in _sample(seed, 1, FOREST_POOL, FOREST_PICK):
        desc = inputs.looped_forest(random.Random(FOREST_BASE + i), FOREST_SIZE)
        path = write_graph(workdir, f"forest{i:02d}", desc)
        parse_file(lv, path)
        ops.append(cli_op(lv, f"forest{i:02d}:pairs", ["--json", "pairs", path], project_pairs))
    return _order(ops, seed)


# ---------------------------------------------------------------------------
# classify-dense
# ---------------------------------------------------------------------------

# The 12 large inputs (the three named graphs and 9 thinned complete
# digraphs) are fixed, like the chains of pairs-chain, and are 12 of the 100
# ops of a pass, so they set op_p90_ms and most of wall_s; the seeded small
# dense graphs set op_p50_ms.
DENSE_POOL, DENSE_PICK, DENSE_BASE = 128, 88, 2_000
DENSE_SHAPE = (7, 14, 1)  # vertices, edges, bundles
THIN_COUNT, THIN_BASE = 9, 2_500
THIN_SHAPES = ((1, 5, 2), (1, 6, 10), (2, 5, 12))  # blocks, block size, edges dropped


def setup_classify_dense(lv, seed: int, workdir: str, counters: Counters) -> list:
    named = [
        ("k5sink", inputs.complete_plus_sink(5)),
        ("blocks2x4", inputs.complete_blocks(2, 4)),
        ("blocks3x4", inputs.complete_blocks(3, 4)),
    ]
    named += [
        (f"thin{i:02d}", inputs.thinned_blocks(
            random.Random(THIN_BASE + i), *THIN_SHAPES[i % len(THIN_SHAPES)]))
        for i in range(THIN_COUNT)
    ]
    named += [
        (f"dense{i:02d}", inputs.random_dense(random.Random(DENSE_BASE + i), *DENSE_SHAPE))
        for i in _sample(seed, 2, DENSE_POOL, DENSE_PICK)
    ]
    ops = []
    for name, desc in named:
        path = write_graph(workdir, name, desc)
        parse_file(lv, path)
        ops.append(cli_op(
            lv, f"{name}:classify", ["--json", "classify", path, "--all"], project_classify
        ))
    return _order(ops, seed)


# ---------------------------------------------------------------------------
# terms-membership
# ---------------------------------------------------------------------------

MEMBER_GRAPHS, MEMBER_PER_GRAPH, MEMBER_PICK, MEMBER_BASE = 32, 50, 1200, 3_000


def membership_op(lv, g, pair, query, field) -> Op:
    graphio, ideals = lv.graphio, lv.ideals  # looked up per call, so tracing sees them

    def run():
        a = graphio.parse_element(g, query["a"], field)
        b = graphio.parse_element(g, query["b"], field)
        product = a * b
        oracle_in = query["oracle"] is None or ideals.contains(
            g, pair, graphio.parse_element(g, query["oracle"], field))
        return (
            product,
            ideals.contains(g, pair, product),
            oracle_in,
            ideals.contains(g, pair, graphio.parse_element(g, query["outside"], field)),
        )

    def check(result):
        product, member, oracle_in, outside_in = result
        if not oracle_in:
            raise OracleError(f"{query['key']}: a.gen.b not in I(H,S)")
        if outside_in:
            raise OracleError(f"{query['key']}: vertex {query['outside']} outside H is in I(H,S)")
        return {"product": str(product), "member": member}

    return Op(query["key"], run, check)


def setup_terms_membership(lv, seed: int, workdir: str, counters: Counters) -> list:
    descs, pool = inputs.membership_pool(MEMBER_BASE, MEMBER_GRAPHS, MEMBER_PER_GRAPH)
    graphs = {
        name: parse_file(lv, write_graph(workdir, name, desc)).graph
        for name, desc in descs.items()
    }
    fields = {spec: lv.fields.field_from_spec(spec) for spec in ("q", "p:7")}
    pairs = {}
    ops = []
    for i in _sample(seed, 3, len(pool), MEMBER_PICK):
        q = pool[i]
        g = graphs[q["graph"]]
        pk = (q["graph"], tuple(q["H"]), tuple(q["S"]))
        if pk not in pairs:
            pairs[pk] = lv.ideals.admissible_pair(g, q["H"], q["S"])
        ops.append(membership_op(lv, g, pairs[pk], q, fields[q["field"]]))
    return _order(ops, seed)


# ---------------------------------------------------------------------------
# modules-window
# ---------------------------------------------------------------------------

WINDOW = (7, 3)
# CLI selectors for the 16 descriptors of verification.catalog_modules, in its order.
ANN_SELECTORS = (
    ("G1", "nc:e@v"), ("G2", "nc:c@v"), ("G3", "nc:c@v"), ("G6", "nc:f,g@v"),
    ("G6", "nc:g,f@w"), ("G1", "valpha:rat:@v:e"), ("G2", "emitter:v"), ("G2", "sink:w"),
    ("G2", "valpha:rat:@v:c"), ("G3", "emitter:u"), ("G3", "sink:w"),
    ("G3", "valpha:rat:@v:c"), ("G4", "emitter:v"), ("G4", "valpha:irr:b[0]:b[1]"),
    ("G5", "valpha:irr:d:e"), ("G6", "valpha:rat:@v:f,g"),
)
RECOVER_PER_MODULE, RECOVER_PICK, RECOVER_BASE = 32, 120, 4_000
VERIFY_SEEDS = 8


def module_op(lv, key: str, g, d, t, counters: Counters) -> Op:
    chen, branching = lv.chen, lv.branching
    is_nc = isinstance(d, chen.NcModule)

    def run():
        system = chen.build_module(g, d)
        axioms = branching.check_axioms(system, t)
        gens = chen.annihilator_generators(g, d)
        return axioms, branching.annihilation_check(system, gens, t)

    def check(result):
        axioms, ann = result
        counters.axiom_overflow_notes += len(axioms.overflow_notes)
        counters.annihilation_checked += ann.checked
        counters.annihilation_overflows += len(ann.overflows)
        counters.annihilation_vacuous += ann.checked == 0
        if ann.failures:
            raise OracleError(f"{key}: annihilator generator acts nontrivially")
        flags = [
            axioms.axiom1, axioms.axiom2, axioms.axiom3, axioms.axiom4,
            axioms.perfect, axioms.saturated, axioms.graded,
        ]
        if is_nc and not all(flags):
            raise OracleError(f"{key}: N_c module fails its axioms: {axioms.violations[:2]}")
        return {
            "label": d.label(),
            "flags": flags,
            "violations": len(axioms.violations),
            "overflow_notes": len(axioms.overflow_notes),
            "checked": ann.checked,
            "overflows": len(ann.overflows),
        }

    return Op(key, run, check)


def recover_op(lv, g, item: dict, t) -> Op:
    """``recover_generator`` on one pooled vector, built from its edge names
    through the public path, cycle and reduction functions."""
    chen, graphs = lv.chen, lv.graphs

    def path(start, refs):
        return graphs.make_path(g, start, [lv.graphio.parse_ref(r, g) for r in refs])

    v = item["v"]
    cycle = graphs.make_cycle(g, v, [lv.graphio.parse_ref(r, g) for r in item["cycle"]])
    d = chen.nc_module(g, cycle, v)
    coeffs = {
        chen.red(g, cycle, v, path(start, p), path(v, q)): Fraction(k)
        for (start, p, q), k in item["terms"]
    }
    vector = lv.branching.ModuleVector(lv.fields.QQ, coeffs)

    def run():
        return chen.recover_generator(g, d, vector, t)

    def check(w):
        return {"index": w.index, "p": str(w.p), "q": str(w.q), "k": str(w.k),
                "carrier": str(w.carrier)}

    return Op(item["key"], run, check)


def setup_modules_window(lv, seed: int, workdir: str, counters: Counters) -> list:
    paths = {name: write_graph(workdir, name, desc) for name, desc in inputs.CATALOG.items()}
    graphs = {name: parse_file(lv, path).graph for name, path in paths.items()}
    t = lv.branching.Truncation(*WINDOW)
    modules = lv.verification.catalog_modules(graphs)
    if len(modules) != len(ANN_SELECTORS):
        raise RuntimeError(f"expected {len(ANN_SELECTORS)} catalog modules, got {len(modules)}")
    ops = []
    for (name, g, d), (sel_graph, selector) in zip(modules, ANN_SELECTORS):
        ops.append(module_op(lv, f"module:{sel_graph}:{selector}", g, d, t, counters))
        ops.append(cli_op(
            lv,
            f"ann:{sel_graph}:{selector}",
            ["--json", "ann", paths[sel_graph], "--module", selector, "--verify",
             "--window", str(WINDOW[0]), str(WINDOW[1])],
            project_ann,
        ))
    pool = inputs.nc_vector_pool(RECOVER_BASE, RECOVER_PER_MODULE, WINDOW[0])
    for i in _sample(seed, 4, len(pool), RECOVER_PICK):
        ops.append(recover_op(lv, graphs[pool[i]["graph"]], pool[i], t))
    for vseed in _sample(seed, 5, VERIFY_SEEDS, 1):
        ops.append(cli_op(
            lv, f"verify:{vseed}", ["--json", "verify", "--catalog", "--seed", str(vseed)],
            project_verify,
        ))
    return _order(ops, seed)


WORKLOADS = {
    "pairs-chain": setup_pairs_chain,
    "classify-dense": setup_classify_dense,
    "terms-membership": setup_terms_membership,
    "modules-window": setup_modules_window,
}
