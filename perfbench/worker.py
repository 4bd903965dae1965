#!/usr/bin/env python3
"""One compile pass of a workload, in a fresh process.

    python3 perfbench/worker.py --workload NAME --seed N [--setup-only]
                                [--check] [--trace-out FILE]

A fresh process per pass makes every pass start with the program's
process-wide caches empty, as a command-line user's compile does, and lets
set-up time include importing the program.  Prints one JSON object.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def import_program() -> None:
    """Import optswap from this checkout's source tree, never from elsewhere."""
    sys.path.insert(0, str(SRC))
    from optswap import routing

    origin = Path(routing.__file__).resolve().parent
    if origin != SRC / "optswap":
        raise SystemExit(f"optswap imported from {origin}, not from {SRC}")


def compile_pass(inputs, seed: int, host_s: list[float], tracer=None) -> list[dict]:
    """Every (circuit, router) compile, one at a time, timed one by one.
    Appends a host-speed sample to host_s before each compile and after the
    last; the samples are outside the compile times."""
    import hostspeed
    from optswap import routing

    compiles = []
    for name, circuit in inputs.circuits:
        for algorithm in (routing.SABRE, routing.NASSC):
            cfg = routing.RouterConfig(
                algorithm=algorithm, seed=seed, noise_profile=inputs.router_noise
            )
            if tracer is not None:
                tracer.compile_id = len(compiles)
            entry = {"name": name, "router": algorithm, "circuit": circuit}
            host_s.append(hostspeed.sample())
            t0 = time.perf_counter()
            try:
                entry["result"] = routing.full_pipeline(circuit, inputs.cmap, cfg)
            except Exception as exc:  # a failed compile is counted, not fatal
                where = traceback.extract_tb(exc.__traceback__)[-1]
                entry["error"] = (f"{type(exc).__name__}: {exc} "
                                  f"({Path(where.filename).name}:{where.lineno})")
            entry["wall_s"] = time.perf_counter() - t0
            compiles.append(entry)
    host_s.append(hostspeed.sample())
    return compiles


def quality(compiles: list[dict], inputs) -> dict:
    """Per-circuit output quality of the checked outputs; it depends only on
    the seed and the program."""
    from optswap.bench import estimate_fidelity

    # a circuit counts only when both routers' outputs passed the checks, so
    # that the sabre and nassc sums always cover the same circuits
    by_circuit: dict[str, dict] = {}
    for c in compiles:
        ok = "result" in c and "check_failure" not in c
        by_circuit.setdefault(c["name"], {})[c["router"]] = c["result"] if ok else None
    rows = []
    swaps = {"swaps": 0, "opt_2q": 0, "opt_commute": 0}
    for results in by_circuit.values():
        if None in results.values():
            continue
        for res in results.values():
            swaps["swaps"] += res.stats["swaps_inserted"]
            swaps["opt_2q"] += res.stats["swaps_opt_by_2q"]
            swaps["opt_commute"] += res.stats["swaps_opt_by_commute"]
        sabre, nassc = results["sabre"], results["nassc"]
        rows.append({
            "cnot_add": [sabre.stats["cnot_add"], nassc.stats["cnot_add"]],
            "depth_add": [sabre.stats["depth_add"], nassc.stats["depth_add"]],
            "cx_errors_nassc": -math.log(estimate_fidelity(nassc.circuit,
                                                           inputs.fidelity_noise)),
        })
    return {"circuits": rows, "swaps": swaps}


def check_outputs(compiles: list[dict], inputs) -> dict:
    """Compliance and oracle checks; records why an output failed them."""
    from checks import compliance_errors, equivalent

    verified = unverified = 0
    t0 = time.perf_counter()
    for c in compiles:
        if "result" not in c:
            continue
        res = c["result"]
        errors = compliance_errors(res.circuit, inputs.cmap)
        if errors:
            c["check_failure"] = "noncompliant: " + "; ".join(errors[:3])
            continue
        try:
            same = equivalent(c["circuit"], res.circuit, res.initial_mapping,
                              res.final_mapping)
        except Exception as exc:  # a check that cannot run is a failure
            c["check_failure"] = f"oracle {type(exc).__name__}: {exc}"
            continue
        if same is None:
            unverified += 1
        elif same:
            verified += 1
        else:
            c["check_failure"] = "output differs from input on the statevector oracle"
    return {"sim.verify_s": time.perf_counter() - t0,
            "sim.verified": verified, "sim.unverified": unverified}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--check", action="store_true")
    ap.add_argument("--trace-out", default=None)
    args = ap.parse_args(argv)

    # set-up time counts importing optswap, so every module of this directory
    # that imports it is imported here or later, not at the top of the file
    t0 = time.perf_counter()
    import_program()
    import workloads

    inputs = workloads.load_inputs(args.workload, args.seed, time.perf_counter)
    out = {"seed": args.seed, "setup_s": time.perf_counter() - t0,
           "parse_s": inputs.parse_s, "gates_parsed": inputs.gates_parsed}
    if args.setup_only:
        print(json.dumps(out))
        return 0

    tracer = None
    if args.trace_out:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    host_s: list[float] = []
    cpu0 = time.process_time()
    compiles = compile_pass(inputs, args.seed, host_s, tracer)
    out["cpu_s"] = time.process_time() - cpu0 - sum(host_s)
    out["host_s"] = host_s
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        tracer.uninstall()
        out["per_layer"] = tracer.summary()
        Path(args.trace_out).parent.mkdir(parents=True, exist_ok=True)
        tracer.write(args.trace_out)
    if args.check:
        out["sim"] = check_outputs(compiles, inputs)
        out["quality"] = quality(compiles, inputs)

    from checks import compile_record, digest

    out["wall_s"] = [c["wall_s"] for c in compiles]
    out["errors"] = {i: c["error"] for i, c in enumerate(compiles) if "error" in c}
    out["check_failures"] = {
        i: c["check_failure"] for i, c in enumerate(compiles) if "check_failure" in c
    }
    out["digest"] = digest([
        compile_record(c["name"], c["router"], c["result"]) if "result" in c
        else f"{c['name']} {c['router']} failed"
        for c in compiles
    ])
    out["gates_in"] = sum(len(c["circuit"].gates) for c in compiles)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
