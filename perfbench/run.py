#!/usr/bin/env python3
"""Compile benchmark for optswap: SABRE vs NASSC routing through the full
pipeline, one compile at a time.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

A closed loop with one client: compiles run back to back in one worker
process, with no pool.  A pass compiles one workload instance (10 circuits x
{sabre, nassc} = 20 compiles, layout seed = instance seed) in a fresh worker
process, so that it starts with the program's caches empty.

--trace 0  compiles the INSTANCES instances with seeds INSTANCES*N + k, checks
           every output, repeats instances while the compile time spent
           stays within --seconds, and prints the end-to-end metrics.  Two
           instances per run halve the seed-to-seed variance of the quality
           metrics that one instance of 20 compiles shows.
--trace 1  compiles instance INSTANCES*N once untraced (checked) and once with
           spans around the program's public functions, and prints the
           per-layer metrics.

Metrics: compile_s sums, and compile_s_p50 is the median of, the per-compile
times (n = 20 per instance), each the median over repeats of its instance.
setup_s is the median of at least SETUP_SAMPLES worker set-ups: importing
optswap, then generating or reading and parsing the inputs.  All three are
in seconds of a reference host (see hostspeed.py): a pass's wall times are
scaled by REFERENCE_S over the mean time of a fixed task timed between its
compiles, and set-up times by the run's mean, because the shared host's
speed drifts by 10-25% over minutes while that ratio stays within a few
percent.  The raw wall times are in the environment line.  The
quality metrics cover every circuit of the run's instances and repeat
exactly for a seed; *_ratio is geomean(nassc / sabre) over circuits, and
est_cx_errors_nassc is -sum(ln est_fidelity) over the NASSC outputs.

The result's "correct" is false when an output fails a check (coupling
compliance, statevector oracle) or passes of one instance disagree on the
digest; "failed" counts those outputs plus compiles that raised.  The last
line of standard output is the result object; the line before it records
the environment, the determinism digests and any failures.  Metric names and units come from
BENCHMARK.json at the checkout root.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

import hostspeed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
INSTANCES = 2
SETUP_SAMPLES = 15
TIME_LIMIT_S = 170.0


class RunFailed(RuntimeError):
    pass


def git_revision() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def loadavg() -> list[str] | None:
    try:
        return Path("/proc/loadavg").read_text().split()[:3]
    except OSError:
        return None


def environment() -> dict:
    try:
        numpy_version = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = None
    return {
        "python": platform.python_version(),
        "numpy": numpy_version,
        "cpu_count": os.cpu_count(),
        "git_revision": git_revision(),
        "loadavg_start": loadavg(),
    }


class Runner:
    def __init__(self, workload: str):
        self.workload = workload
        self.deadline = time.monotonic() + TIME_LIMIT_S

    def worker(self, seed: int, *extra: str) -> dict:
        timeout = self.deadline - time.monotonic()
        if timeout <= 0:
            raise RunFailed(f"run exceeded {TIME_LIMIT_S:.0f} s")
        try:
            proc = subprocess.run(
                [sys.executable, str(HERE / "worker.py"),
                 "--workload", self.workload, "--seed", str(seed), *extra],
                cwd=ROOT, capture_output=True, text=True, timeout=timeout,
            )
        except subprocess.TimeoutExpired as exc:
            raise RunFailed(f"worker timed out after {timeout:.0f} s") from exc
        if proc.returncode != 0:
            raise RunFailed(f"worker exited {proc.returncode}:\n{proc.stderr[-3000:]}")
        return json.loads(proc.stdout.strip().splitlines()[-1])


def geomean_ratio(pairs: list[tuple[float, float]]) -> float | None:
    """geomean(value / baseline) over (baseline, value) pairs, skipping the
    pairs ``optswap.bench._summary_row`` skips: baseline <= 0 or ratio <= 0."""
    logs = [math.log(v / b) for b, v in pairs if b > 0 and v / b > 0]
    if not logs:
        return None
    return math.exp(sum(logs) / len(logs))


def quality(circuits: list[dict]) -> dict:
    cnot = [c["cnot_add"] for c in circuits]
    depth = [c["depth_add"] for c in circuits]
    return {
        "cnot_add_nassc": sum(n for _, n in cnot),
        "cnot_add_sabre": sum(s for s, _ in cnot),
        "depth_add_nassc": sum(n for _, n in depth),
        "depth_add_sabre": sum(s for s, _ in depth),
        "cnot_add_ratio": geomean_ratio(cnot),
        "depth_add_ratio": geomean_ratio(depth),
        "est_cx_errors_nassc": sum(c["cx_errors_nassc"] for c in circuits),
    }


def normalized(p: dict) -> list[float]:
    """A pass's compile times in seconds of the reference host: each wall
    time scaled by the mean host-speed sample of its pass."""
    scale = hostspeed.REFERENCE_S / statistics.fmean(p["host_s"])
    return [w * scale for w in p["wall_s"]]


def end_to_end(
    runner: Runner, seed: int, seconds: int
) -> tuple[dict, list[dict], list[dict]]:
    """(metrics, the checked pass of each instance, every pass)."""
    seeds = [INSTANCES * seed + k for k in range(INSTANCES)]
    checked = [runner.worker(s, "--check") for s in seeds]
    by_seed = {s: [p] for s, p in zip(seeds, checked)}
    spent = sum(sum(p["wall_s"]) for p in checked)
    turn = 0
    while spent + sum(by_seed[seeds[turn]][0]["wall_s"]) <= seconds:
        repeat = runner.worker(seeds[turn])
        by_seed[seeds[turn]].append(repeat)
        spent += sum(repeat["wall_s"])
        turn = (turn + 1) % INSTANCES
    passes = [p for s in seeds for p in by_seed[s]]
    setups = [p["setup_s"] for p in passes]
    while len(setups) < SETUP_SAMPLES:
        setups.append(runner.worker(seeds[0], "--setup-only")["setup_s"])

    per_compile = [
        statistics.median(w)
        for s in seeds for w in zip(*(normalized(p) for p in by_seed[s]))
    ]
    host_s = statistics.fmean(h for p in passes for h in p["host_s"])
    metrics = {
        "compile_s": sum(per_compile),
        "compile_s_p50": statistics.median(per_compile),
        "setup_s": statistics.median(setups) * hostspeed.REFERENCE_S / host_s,
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
        **quality([c for p in checked for c in p["quality"]["circuits"]]),
    }
    return metrics, checked, passes


def per_layer(runner: Runner, seed: int) -> tuple[dict, list[dict], list[dict]]:
    seed = INSTANCES * seed
    plain = runner.worker(seed, "--check")
    spans = HERE / "out" / f"spans-{runner.workload}-seed{seed}.jsonl.gz"
    traced = runner.worker(seed, "--trace-out", str(spans))
    swaps = plain["quality"]["swaps"]
    metrics = {
        **traced["per_layer"],
        **plain["sim"],
        "routing.swaps": swaps["swaps"],
        "routing.swaps_opt_2q_frac": swaps["opt_2q"] / swaps["swaps"],
        "routing.swaps_opt_commute_frac": swaps["opt_commute"] / swaps["swaps"],
        "qasm.parse_s": traced["parse_s"],
        "qasm.gates_per_s": traced["gates_parsed"] / traced["parse_s"],
        "ir.gates_in": traced["gates_in"],
        "trace.overhead": sum(normalized(traced)) / sum(normalized(plain)),
    }
    return metrics, [plain], [plain, traced]


def main(argv=None) -> int:
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        print(f"error: cannot read BENCHMARK.json: {exc}", file=sys.stderr)
        return 1
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    try:
        env = environment()
        runner = Runner(args.workload)
        if args.trace:
            metrics, checked, passes = per_layer(runner, args.seed)
        else:
            metrics, checked, passes = end_to_end(runner, args.seed, args.seconds)
        declared = spec["per_layer" if args.trace else "end_to_end"]
        if set(metrics) != {m["name"] for m in declared}:
            raise RunFailed(
                f"measured metrics differ from BENCHMARK.json: "
                f"{sorted(set(metrics) ^ {m['name'] for m in declared})}"
            )
    except (OSError, RunFailed, KeyError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    digests: dict[int, set] = {}
    for p in passes:
        digests.setdefault(p["seed"], set()).add(p["digest"])
    env["loadavg_end"] = loadavg()
    env["compile_cpu_s"] = [p["cpu_s"] for p in passes]
    env["compile_wall_s"] = [sum(p["wall_s"]) for p in passes]
    env["host_s_mean"] = [statistics.fmean(p["host_s"]) for p in passes]
    # each compile counts once, from its checked pass; the other passes of an
    # instance repeat the same compiles, and the digest shows if they differ
    wrong = sum(len(p["check_failures"]) for p in checked)
    failed = wrong + sum(len(p["errors"]) for p in checked)
    print(json.dumps({
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "passes": len(passes),
        "digest": {s: sorted(d) for s, d in digests.items()},
        "errors": [p["errors"] for p in passes],
        "check_failures": [p["check_failures"] for p in passes],
        "checks": [p["sim"] for p in passes if "sim" in p],
        "env": env,
    }))
    missing = [k for k, v in metrics.items() if v is None]
    if missing:
        print(f"error: no value for {missing}: no circuit passed the checks "
              "with both routers", file=sys.stderr)
        return 1
    print(json.dumps({
        "correct": wrong == 0 and all(len(d) == 1 for d in digests.values()),
        "attempted": sum(len(p["wall_s"]) for p in checked),
        "failed": failed,
        "metrics": {
            m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in declared
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
