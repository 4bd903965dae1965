#!/usr/bin/env python3
"""Byte-level output guard: compile the standard guard set with this checkout
and print one JSON line per instance.

    python3 scripts/digest_guard.py > guard.jsonl

The guard set is paper_montreal and wide_grid instances 0-3 plus small_noisy
instances 0-19.  Each instance runs ``perfbench/worker.py --check`` of the
checkout this script sits in, in its own process, and its line holds the
digest over every routed QASM, mapping and stats dict, the compiles that
raised and the outputs that failed a check.  Run it in two checkouts and
compare the files with ``diff``: a change that keeps outputs byte-identical
leaves them equal.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKER = ROOT / "perfbench" / "worker.py"

GUARD_SET = (
    ("paper_montreal", range(4)),
    ("wide_grid", range(4)),
    ("small_noisy", range(20)),
)


def guard_line(workload: str, instance: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(WORKER), "--workload", workload,
         "--seed", str(instance), "--check"],
        cwd=ROOT, capture_output=True, text=True, check=True,
    )
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    return {
        "workload": workload,
        "instance": instance,
        "digest": out["digest"],
        "errors": out["errors"],
        "check_failures": out["check_failures"],
    }


def main() -> int:
    for workload, instances in GUARD_SET:
        for instance in instances:
            print(json.dumps(guard_line(workload, instance)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
