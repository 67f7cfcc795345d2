#!/usr/bin/env python3
"""leavitt benchmark: one workload, one process, one thread, closed loop.

    python3 bench/run.py --workload pairs-chain --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout; leavitt is imported from ``src/``.
The ``--seconds`` window is cut into ``SETUP_REPEATS`` rounds.  Each round
sets up afresh (import leavitt, generate the seeded inputs, write them as
graph files and parse them through ``graphio``; setup_s is the median), runs
one cold pass over the op list, in which every op meets its input for the
first time since leavitt was imported, and then warm passes until its time
is up.  Every op's output is reduced to a canonical value whose digest must
match ``reference.json``; a mismatch, an exception, a nonzero exit code or a
broken oracle counts as a failed op.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced warm passes and reports the per-layer metrics of the fastest
traced pass (see ``layertrace.py``); the spans of the first traced pass are
written to ``.bench_out/``.  The last line of stdout is the result object.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
from types import SimpleNamespace

import layertrace
import workloads

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
SETUP_REPEATS = 5
MODULES = (
    "cli", "graphio", "graphs", "ideals", "fields", "chen", "branching", "verification",
)

END_TO_END_UNITS = {
    "setup_s": "s",
    "cold_wall_s": "s",
    "wall_s": "s",
    "ops_per_s": "ops/s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "peak_rss_mb": "MB",
}


def per_layer_unit(name: str) -> str:
    if name.endswith(("_s", ".s")) or ".suite_s." in name:
        return "s"
    if name.endswith("us_per_call"):
        return "us"
    if name.endswith("ms_per_pair"):
        return "ms"
    if name.endswith(("_ratio", "_yield", ".per_contains", ".calls_per_graph", ".coverage")):
        return "ratio"
    return "count"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "cpus": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "cpu_model": cpu_model(),
        "cpu_frequency_and_pinning": "not controlled",
        "loop": "closed, one op at a time, one thread",
    }


class SetupError(Exception):
    """The checkout has no leavitt of its own to benchmark."""


def import_leavitt() -> SimpleNamespace:
    """A fresh import of leavitt from this checkout's ``src/``."""
    for name in [n for n in sys.modules if n == "leavitt" or n.startswith("leavitt.")]:
        del sys.modules[name]
    if not os.path.isfile(os.path.join(SRC, "leavitt", "__init__.py")):
        raise SetupError(f"no leavitt package under {SRC}")
    if sys.path[0] != SRC:
        sys.path.insert(0, SRC)
    importlib.invalidate_caches()
    lv = SimpleNamespace(**{m: importlib.import_module(f"leavitt.{m}") for m in MODULES})
    if not lv.cli.__file__.startswith(SRC):
        raise SetupError(f"leavitt imported from {lv.cli.__file__}, not {SRC}")
    return lv


def digest(value) -> str:
    text = json.dumps(value, sort_keys=True, separators=(",", ":"), default=str)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def run_pass(ops, reference, counters, errors, tracer=None):
    """Run every op once; returns (op seconds, failed count)."""
    for field in vars(counters):
        setattr(counters, field, 0)
    times, failed = [], 0
    clock = time.perf_counter
    for i, op in enumerate(ops):
        if tracer is not None:
            tracer.op_index = i
        t0 = clock()
        try:
            result = op.run()
        except Exception as exc:  # a failed op is counted, never dropped
            times.append(clock() - t0)
            failed += 1
            errors.append(f"{op.key}: {type(exc).__name__}: {exc}")
            continue
        times.append(clock() - t0)
        try:
            got = digest(op.check(result))
        except Exception as exc:
            failed += 1
            errors.append(f"{op.key}: {type(exc).__name__}: {exc}")
            continue
        if reference.get(op.key) != got:
            failed += 1
            errors.append(f"{op.key}: digest {got} != reference {reference.get(op.key)}")
    return times, failed


def best_times(passes) -> list:
    """Each op's fastest time over the passes (best of k, k = passes)."""
    return [min(times) for times in zip(*passes)]


def counter_metrics(counters) -> dict:
    attempted = counters.annihilation_checked + counters.annihilation_overflows
    return {
        "branching.axiom_overflow_notes": counters.axiom_overflow_notes,
        "branching.annihilation.checked": counters.annihilation_checked,
        "branching.annihilation.overflow_ratio":
            counters.annihilation_overflows / attempted if attempted else 0.0,
        "branching.annihilation.vacuous": counters.annihilation_vacuous,
    }


def measure(args, setup, reference, workdir):
    """Set up, then run passes until the deadline; returns the result object.

    The ``--seconds`` window is cut into ``SETUP_REPEATS`` rounds.  A round
    imports leavitt afresh and sets up (timed for setup_s), runs one cold
    pass, in which every op meets its input for the first time since the
    import, and then warm passes over the same ops until the round's time is
    up (at least one).  A seed gives the same op list in every round.

    An op's latency is its best time over the run's passes.  On a shared
    virtual machine the CPU alternates between fast and slow phases that
    last seconds to minutes (on a 2-vCPU Xeon VM the same op took up to 1.8x
    longer in a slow one), so medians and pooled percentiles move with the
    phase mix of a run, while each op's best time is its cost with the least
    interference; the rounds spread the cold and the warm passes over the
    whole window.  wall_s is the sum of the warm best times (one pass at
    best), and the percentiles run over the ops of a pass.  A warm pass
    repeats inputs the process has seen, so work done once per input shows
    only in cold_wall_s, the sum of the cold best times.
    """
    errors = []
    attempted = failed = 0
    setup_times = []
    cold, untraced, traced = [], [], []  # op times, one list per pass
    layers = []  # (traced pass wall, per-layer metrics)
    first_tracer = None  # its spans are written out when the run ends
    start = time.perf_counter()
    for round_ in range(1, SETUP_REPEATS + 1):
        t0 = time.perf_counter()
        lv = import_leavitt()
        counters = workloads.Counters()
        ops = setup(lv, args.seed, workdir, counters)
        setup_times.append(time.perf_counter() - t0)
        times, bad = run_pass(ops, reference, counters, errors)
        attempted += len(times)
        failed += bad
        cold.append(times)
        while True:
            times, bad = run_pass(ops, reference, counters, errors)
            attempted += len(times)
            failed += bad
            untraced.append(times)
            if args.trace:
                tracer = layertrace.Tracer()
                tracer.install()
                try:
                    times, bad = run_pass(ops, reference, counters, errors, tracer)
                finally:
                    tracer.uninstall()
                attempted += len(times)
                failed += bad
                traced.append(times)
                metrics = tracer.layer_metrics(sum(times))
                metrics.update(counter_metrics(counters))
                layers.append((sum(times), metrics))
                first_tracer = first_tracer or tracer
            if time.perf_counter() - start >= args.seconds * round_ / SETUP_REPEATS:
                break

    best = best_times(untraced)
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "ops_per_pass": len(best),
        "passes": len(untraced),
        "cold_pass_wall_s": [round(sum(t), 6) for t in cold],
        "pass_wall_s": [round(sum(t), 6) for t in untraced],
        "setup_s": [round(s, 6) for s in setup_times],
        "environment": environment(),
    }
    if args.trace:
        _, metrics = min(layers, key=lambda item: item[0])  # the least disturbed pass
        metrics["trace.overhead_ratio"] = sum(best_times(traced)) / sum(best)
        metrics = {k: {"value": v, "unit": per_layer_unit(k)} for k, v in sorted(metrics.items())}
        spans_file = os.path.join(ROOT, ".bench_out", f"spans-{args.workload}-seed{args.seed}.tsv.gz")
        first_tracer.write_spans(spans_file)
        info["traced_pass_wall_s"] = [round(sum(t), 6) for t in traced]
        info["spans_file"] = os.path.relpath(spans_file, ROOT)
    else:
        info["latency_samples"] = len(best)  # at least 100, so 10 or more lie beyond p90
        info["latency_best_of"] = len(untraced)
        cuts = statistics.quantiles(best, n=100, method="inclusive")
        values = {
            "setup_s": statistics.median(setup_times),
            "cold_wall_s": sum(best_times(cold)),
            "wall_s": sum(best),
            "ops_per_s": len(best) / sum(best),
            "op_p50_ms": cuts[49] * 1e3,
            "op_p90_ms": cuts[89] * 1e3,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
    info["error_rate"] = failed / attempted
    info["errors"] = errors[:10]
    print(json.dumps({"info": info}))
    for line in errors[:10]:
        print(f"failed op: {line}", file=sys.stderr)
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        with open(os.path.join(BENCH, "reference.json"), encoding="utf-8") as fh:
            reference = json.load(fh)[args.workload]
        os.makedirs(os.path.join(ROOT, ".bench_work"), exist_ok=True)
        workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=os.path.join(ROOT, ".bench_work"))
    except (OSError, KeyError, ValueError) as exc:
        print(f"bench: cannot start: {exc}", file=sys.stderr)
        return 2
    try:
        result = measure(args, workloads.WORKLOADS[args.workload], reference, workdir)
    except (SetupError, ImportError) as exc:
        print(f"bench: cannot set up: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
