#!/usr/bin/env python3
"""Ungated scaling ladder: how the two worst-scaling commands grow with size.

    python3 bench/ladder.py          # the JSON report goes to stdout

Two families, each climbed one size at a time until a size takes longer than
``CAP_S`` seconds, which is recorded as ``"capped"`` and ends that family:

* ``chain``: ``pairs`` on a chain of n looped vertices, from n = 12
  (the pair lattice: all 2^n vertex subsets are tested for n+1 pairs);
* ``ksink``: ``classify --all`` on the complete digraph K_n plus a sink,
  from n = 4 (cycle enumeration: K_7 + sink is far beyond any cap today).

Each size runs in a child process that is killed at the cap, so no size can
hang the ladder.  The ladder is not part of the gated benchmark; it tracks
the scaling targets (chain n = 18, K_7 + sink) outside it.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import shutil
import subprocess
import sys
import tempfile
import time

import inputs
import run

CAP_S = 20.0  # seconds per size
FAMILIES = {
    "chain": (12, 26, inputs.looped_chain, ["pairs"]),
    "ksink": (4, 9, inputs.complete_plus_sink, ["classify", "--all"]),
}


def one(family: str, n: int, workdir: str) -> dict:
    """Child side: time one command on one size, in process."""
    _, _, make, command = FAMILIES[family]
    lv = run.import_leavitt()
    path = os.path.join(workdir, f"{family}{n}.txt")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(inputs.graph_text(make(n)))
    out = io.StringIO()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(out):
        code = lv.cli.main(["--json", command[0], path, *command[1:]])
    seconds = time.perf_counter() - t0
    report = json.loads(out.getvalue())
    size = report["count"] if "count" in report else len(report["records"])
    return {"n": n, "seconds": seconds, "exit_code": code, "output_records": size}


def climb(family: str, workdir: str) -> list:
    start, stop, _, _ = FAMILIES[family]
    rows = []
    for n in range(start, stop):
        try:
            child = subprocess.run(
                [sys.executable, os.path.abspath(__file__), "--one", family, str(n), workdir],
                capture_output=True, text=True, timeout=CAP_S,
            )
        except subprocess.TimeoutExpired:
            rows.append({"n": n, "capped": True, "cap_s": CAP_S})
            break
        if child.returncode != 0:
            rows.append({"n": n, "error": child.stderr.strip()[-300:]})
            break
        rows.append(json.loads(child.stdout))
        print(f"{family} n={n}: {rows[-1]['seconds']:.3f} s", file=sys.stderr)
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--one", nargs=3, metavar=("FAMILY", "N", "WORKDIR"),
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.one:
        print(json.dumps(one(args.one[0], int(args.one[1]), args.one[2])))
        return 0
    os.makedirs(os.path.join(run.ROOT, ".bench_work"), exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="ladder-", dir=os.path.join(run.ROOT, ".bench_work"))
    try:  # a child killed at the cap cannot clean up after itself
        families = {family: climb(family, workdir) for family in FAMILIES}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    report = {"environment": run.environment(), "cap_s": CAP_S, "families": families}
    print(json.dumps(report, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
