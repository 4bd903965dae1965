#!/usr/bin/env python3
"""Record a change's and its parent's benchmark results in BENCH_<n>.json.

    python3 scripts/bench_record.py N --parent DIR

The change is the checkout this script sits in; the parent is the checkout
in DIR (one made with ``git clone`` or ``git archive`` will do).  For every
workload this checkout's BENCHMARK.json declares, each side's
``perfbench/run.py`` runs at seed 1 for the declared ``run_seconds``, once
with ``--trace 0`` and once with ``--trace 1``.  The two sides alternate run
by run, and the side that goes first switches from one (workload, trace)
pair to the next, so host drift over the minutes a recording takes falls on
both sides alike.  Each run's last two lines of output, the environment
line (with the git revision the run saw) and the result object, are stored
under the label ``parent`` or ``change`` in BENCH_<N>.json at the root of
this checkout, which is written afresh.  Exits 1 if any run failed; its
error is recorded.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEED = 1


def run_one(checkout: Path, workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(checkout / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=checkout, capture_output=True, text=True,
    )
    record = {"workload": workload, "seed": seed, "trace": trace}
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        record["error"] = f"exit {proc.returncode}: {proc.stderr.strip()[-2000:]}"
        return record
    record["environment"] = json.loads(lines[-2])
    record["result"] = json.loads(lines[-1])
    return record


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("n", type=int, help="number of the BENCH_<n>.json file")
    ap.add_argument("--parent", type=Path, required=True, help="checkout of the parent")
    args = ap.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = spec["run_seconds"]
    sides = {"parent": args.parent.resolve(), "change": ROOT}
    records: dict[str, list[dict]] = {label: [] for label in sides}
    order = list(sides)
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            for label in order:
                record = run_one(sides[label], workload, SEED, seconds, trace)
                records[label].append(record)
                print(f"{label} {workload} trace={trace}: "
                      f"{'failed' if 'error' in record else 'ok'}", file=sys.stderr)
            order.reverse()

    runs = []
    for label, recorded in records.items():
        revisions = {r["environment"]["env"]["git_revision"]
                     for r in recorded if "environment" in r}
        runs.append({
            "label": label,
            "git_revision": revisions.pop() if len(revisions) == 1 else None,
            "seconds": seconds,
            "records": recorded,
        })
    out = ROOT / f"BENCH_{args.n}.json"
    out.write_text(json.dumps({"bench": args.n, "runs": runs}, indent=1) + "\n",
                   encoding="utf-8")
    print(f"wrote {out}", file=sys.stderr)
    return 1 if any("error" in r for recorded in records.values() for r in recorded) else 0


if __name__ == "__main__":
    sys.exit(main())
