#!/usr/bin/env python3
"""Self-test of the benchmark harness (not part of the tier-1 test suite).

    python3 bench/selftest.py

Runs every workload once (``--seconds 1``: five short rounds) untraced under
``PYTHONHASHSEED=1`` and traced under ``PYTHONHASHSEED=2``, and checks that
the result line has exactly the contracted keys, that every op matched its
reference digest, and that every metric named in ``BENCHMARK.json`` is there
with its unit.  It then copies only ``BENCHMARK.json`` and the benchmark
directory into an empty directory and checks that the benchmark refuses to
run there (nonzero exit, no result line).  Prints the environment record.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile

import run

TIMEOUT_S = 180


def bench(cwd: str, workload: str, trace: int, hash_seed: str):
    env = dict(os.environ, PYTHONHASHSEED=hash_seed)
    return subprocess.run(
        [sys.executable, os.path.join("bench", "run.py"), "--workload", workload,
         "--seed", "0", "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=TIMEOUT_S,
    )


def check_result(proc, expected: dict) -> list:
    if proc.returncode != 0:
        return [f"exit code {proc.returncode}: {proc.stderr.strip()[-300:]}"]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys {sorted(result)}")
    if not result.get("correct") or result.get("failed") != 0 or result.get("attempted", 0) < 1:
        problems.append(f"correct={result.get('correct')} failed={result.get('failed')}: "
                        f"{proc.stderr.strip()[-300:]}")
    got = {k: v.get("unit") for k, v in result.get("metrics", {}).items()}
    if got != expected:
        missing = sorted(set(expected) - set(got))
        extra = sorted(set(got) - set(expected))
        wrong = sorted(k for k in set(got) & set(expected) if got[k] != expected[k])
        problems.append(f"metrics missing {missing}, extra {extra}, wrong unit {wrong}")
    return problems


def main() -> int:
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    expected = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    print(json.dumps({"environment": run.environment()}))
    failures = 0
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, hash_seed in ((0, "1"), (1, "2")):
            problems = check_result(bench(run.ROOT, workload, trace, hash_seed), expected[trace])
            failures += bool(problems)
            status = "ok" if not problems else "FAIL " + "; ".join(problems)
            print(f"{workload} trace={trace} PYTHONHASHSEED={hash_seed}: {status}")

    os.makedirs(os.path.join(run.ROOT, ".bench_work"), exist_ok=True)
    bare = tempfile.mkdtemp(prefix="bare-", dir=os.path.join(run.ROOT, ".bench_work"))
    try:
        shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), bare)
        for path in spec["paths"]:
            shutil.copytree(os.path.join(run.ROOT, path), os.path.join(bare, path),
                            ignore=shutil.ignore_patterns("__pycache__"))
        proc = bench(bare, spec["workloads"][0]["name"], 0, "1")
        refused = proc.returncode != 0 and '"metrics"' not in proc.stdout
        failures += not refused
        print(f"bare directory: {'refused' if refused else 'FAIL ran without the program'} "
              f"(exit {proc.returncode})")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    print("selftest", "passed" if not failures else f"FAILED ({failures})")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
