#!/usr/bin/env python3
"""Record one checkout's benchmark results in BENCH_<n>.json.

    python3 scripts/bench_record.py N --label LABEL [--checkout DIR]

Runs ``perfbench/run.py`` of the checkout DIR (default: the checkout this
script sits in) for every workload its BENCHMARK.json declares, at seed 1
for the declared ``run_seconds``, once with ``--trace 0`` and once with
``--trace 1``.  Each run's last two lines of output, the environment line
(with the git revision the run saw) and the result object, are stored under
LABEL in BENCH_<N>.json at the root of the checkout this script sits in; a
run of the same label already in the file is replaced, others are kept.  So
one file can hold a change and its parent: run the script once per checkout.
Exits 1 if any run failed; its error is recorded.
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
    ap.add_argument("--label", required=True, help="name of this run, e.g. parent")
    ap.add_argument("--checkout", type=Path, default=ROOT)
    args = ap.parse_args(argv)

    checkout = args.checkout.resolve()
    spec = json.loads((checkout / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = spec["run_seconds"]
    records = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            records.append(run_one(checkout, workload, SEED, seconds, trace))
            print(f"{workload} trace={trace}: "
                  f"{'failed' if 'error' in records[-1] else 'ok'}", file=sys.stderr)
    revisions = {r["environment"]["env"]["git_revision"] for r in records if "environment" in r}

    out = ROOT / f"BENCH_{args.n}.json"
    bench = (json.loads(out.read_text(encoding="utf-8")) if out.exists()
             else {"bench": args.n, "runs": []})
    bench["runs"] = [r for r in bench["runs"] if r["label"] != args.label]
    bench["runs"].append({
        "label": args.label,
        "git_revision": revisions.pop() if len(revisions) == 1 else None,
        "seconds": seconds,
        "records": records,
    })
    out.write_text(json.dumps(bench, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {out}", file=sys.stderr)
    return 1 if any("error" in r for r in records) else 0


if __name__ == "__main__":
    sys.exit(main())
