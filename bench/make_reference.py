#!/usr/bin/env python3
"""Regenerate ``reference.json``: the digest of every pool op's canonical
output, for every workload.

    python3 bench/make_reference.py

Run it only at a commit whose outputs are trusted (the reference was made at
the commit that added the benchmark); a later run overwrites the reference
that every benchmark run checks against.  Oracles are checked while the
digests are made, so a broken oracle stops the run.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import tempfile

import run
import workloads


def main() -> int:
    reference = {}
    os.makedirs(os.path.join(run.ROOT, ".bench_work"), exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="reference-", dir=os.path.join(run.ROOT, ".bench_work"))
    try:
        for name, setup in workloads.WORKLOADS.items():
            lv = run.import_leavitt()
            digests = {}
            for op in setup(lv, None, workdir, workloads.Counters()):
                if op.key in digests:
                    raise SystemExit(f"duplicate op key {op.key!r} in {name}")
                digests[op.key] = run.digest(op.check(op.run()))
            reference[name] = digests
            print(f"{name}: {len(digests)} ops", file=sys.stderr)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    with open(os.path.join(run.BENCH, "reference.json"), "w", encoding="utf-8") as fh:
        json.dump(reference, fh, indent=0, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
