"""Record the reference outputs the benchmark compares against at its default seed.

Usage (from the repository root)::

    python3 bench/record_reference.py [claims] [scripts] [graph]

Writes ``bench/reference/<workload>.json``, mapping each op name to its exit
code and normalised stdout.  Every op must first pass the verdict known by
construction.  Record again only when a change is meant to alter what the
command line prints.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

import run  # sets the BLAS thread pin before numpy loads
import speed
import workloads


def record(package, workload: str) -> int:
    work = run.WORK / f"reference-{workload}-{os.getpid()}"
    try:
        ops = workloads.build(workload, run.DEFAULT_SEED, work, run.CORPUS)
        table, bad = {}, 0
        with speed.SpeedMeter() as meter:
            results = [run.run_op(package.cli, op, work, None, meter) for op in ops]
        for op, (_, _, code, stdout, error) in zip(ops, results):
            if error is not None:
                print(f"{workload}: op {op.name} fails its verdict: {error}", file=sys.stderr)
                bad += 1
            table[op.name] = {"exit": code, "stdout": stdout}
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if bad:
        return bad
    run.REFERENCE.mkdir(exist_ok=True)
    path = run.REFERENCE / f"{workload}.json"
    path.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {path} ({len(table)} ops)")
    return 0


def main(argv=None) -> int:
    chosen = (argv if argv is not None else sys.argv[1:]) or list(workloads.WORKLOADS)
    unknown = [w for w in chosen if w not in workloads.WORKLOADS]
    if unknown:
        print(f"unknown workload(s): {', '.join(unknown)}", file=sys.stderr)
        return 2
    package = run.import_package()
    return 1 if sum(record(package, w) for w in chosen) else 0


if __name__ == "__main__":
    sys.exit(main())
