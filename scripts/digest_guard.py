#!/usr/bin/env python3
"""Byte-level output guard: compile the standard guard set with this checkout
and print one JSON line per instance.

    python3 scripts/digest_guard.py > guard.jsonl
    python3 scripts/digest_guard.py --against REV

The guard set is paper_montreal and wide_grid instances 0-3 plus small_noisy
instances 0-19.  Each instance runs ``perfbench/worker.py --check`` of the
checkout this script sits in, in its own process, and its line holds the
digest over every routed QASM, mapping and stats dict, the compiles that
raised and the outputs that failed a check.  Run it in two checkouts and
compare the files with ``diff``: a change that keeps outputs byte-identical
leaves them equal.

With ``--against REV`` the script does both runs itself: it checks REV out
into a temporary ``git worktree``, runs the guard there and in this checkout
(uncommitted changes included), prints the two lines of every instance that
differs, and exits 1 if any does.  The worktree is removed afterwards.

    python3 scripts/digest_guard.py --against-tree DIR

does the same with the checkout already in DIR (say, one made with
``git clone`` or ``git archive``), where no worktree can or need be made.
"""

from __future__ import annotations

import argparse
import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

GUARD_SET = (
    ("paper_montreal", range(4)),
    ("wide_grid", range(4)),
    ("small_noisy", range(20)),
)


def guard_line(root: Path, workload: str, instance: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(root / "perfbench" / "worker.py"), "--workload", workload,
         "--seed", str(instance), "--check"],
        cwd=root, capture_output=True, text=True, check=True,
    )
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    return {
        "workload": workload,
        "instance": instance,
        "digest": out["digest"],
        "errors": out["errors"],
        "check_failures": out["check_failures"],
    }


def guard_lines(root: Path):
    for workload, instances in GUARD_SET:
        for instance in instances:
            yield guard_line(root, workload, instance)


def guard_lines_at(rev: str) -> list[dict]:
    """The guard lines of revision REV, run in a temporary worktree."""
    tmp = Path(tempfile.mkdtemp(prefix="digest-guard-"))
    tree = tmp / "tree"
    subprocess.run(["git", "-C", str(ROOT), "worktree", "add", "--detach", str(tree), rev],
                   check=True, capture_output=True, text=True)
    try:
        return list(guard_lines(tree))
    finally:
        subprocess.run(["git", "-C", str(ROOT), "worktree", "remove", "--force", str(tree)],
                       capture_output=True)
        shutil.rmtree(tmp, ignore_errors=True)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    other = ap.add_mutually_exclusive_group()
    other.add_argument("--against", metavar="REV",
                       help="compare with the guard lines of this git revision")
    other.add_argument("--against-tree", metavar="DIR",
                       help="compare with the guard lines of the checkout in DIR")
    args = ap.parse_args(argv)
    if args.against is None and args.against_tree is None:
        for line in guard_lines(ROOT):
            print(json.dumps(line), flush=True)
        return 0
    if args.against is not None:
        label, theirs = args.against, guard_lines_at(args.against)
    else:
        tree = Path(args.against_tree).resolve()
        if not (tree / "perfbench" / "worker.py").is_file():
            ap.error(f"{tree} holds no perfbench/worker.py")
        label, theirs = args.against_tree, list(guard_lines(tree))
    ours = list(guard_lines(ROOT))
    differ = [(a, b) for a, b in zip(theirs, ours) if a != b]
    for a, b in differ:
        print(json.dumps({"workload": a["workload"], "instance": a["instance"],
                          label: a, "here": b}))
    print(f"{len(ours) - len(differ)} of {len(ours)} instances equal at "
          f"{label} and here", file=sys.stderr)
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
