"""Command-line front end: route one circuit, verify equivalence, or run the
benchmark harness."""

from __future__ import annotations

import argparse
import json
import sys

from .bench import load_bench_spec, load_circuit, run_bench, rows_to_csv, write_csv
from .qasm import parse_qasm_file, serialize_qasm
from .routing import NASSC, SABRE, RouterConfig, full_pipeline
from .sim import equivalent_up_to_permutation
from .topology import load_noise_profile, resolve_coupling


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="optswap",
        description="Connectivity-aware SWAP routing with optimization-aware costs",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--debug", action="store_true",
                        help="on an error, re-raise it with its traceback")

    rt = sub.add_parser("route", parents=[common],
                        help="route one QASM circuit onto a device")
    rt.add_argument("--in", dest="infile", required=True, help="input QASM file")
    rt.add_argument("--coupling", required=True,
                    help="montreal | linear(n) | grid(r,c) | JSON map file")
    rt.add_argument("--router", choices=[SABRE, NASSC], default=NASSC)
    rt.add_argument("--seed", type=int, default=0)
    rt.add_argument("--extended-size", type=int, default=20)
    rt.add_argument("--extended-weight", type=float, default=0.5)
    rt.add_argument("--disable-opt", default="",
                    help="comma list from: 2q,commute1,commute2")
    rt.add_argument("--noise", help="noise profile JSON for noise-aware distances")
    rt.add_argument("--out", required=True, help="output QASM file")
    rt.add_argument("--stats", help="write run statistics JSON here")

    vf = sub.add_parser("verify", parents=[common],
                        help="check routed-vs-original equivalence")
    vf.add_argument("--a", dest="original", required=True)
    vf.add_argument("--b", dest="routed", required=True)
    vf.add_argument("--perm", required=True,
                    help="JSON list (final mapping) or a route --stats file")

    bn = sub.add_parser("bench", parents=[common], help="run a benchmark spec and write CSV")
    bn.add_argument("--spec", required=True, help="bench spec JSON")
    bn.add_argument("--large", action="store_true",
                    help="include the spec's large_circuits list")
    bn.add_argument("--jobs", type=int, default=1, help="worker processes")
    return parser


def _route(args) -> int:
    disabled = {tok.strip() for tok in args.disable_opt.split(",") if tok.strip()}
    bad = disabled - {"2q", "commute1", "commute2"}
    if bad:
        print(f"error: unknown optimizations {sorted(bad)}", file=sys.stderr)
        return 2
    cfg = RouterConfig(
        algorithm=args.router,
        extended_size=args.extended_size,
        extended_weight=args.extended_weight,
        b_2q="2q" not in disabled,
        b_commute1="commute1" not in disabled,
        b_commute2="commute2" not in disabled,
        seed=args.seed,
        noise_profile=load_noise_profile(args.noise) if args.noise else None,
    )
    circuit = load_circuit(args.infile)
    cmap = resolve_coupling(args.coupling)
    result = full_pipeline(circuit, cmap, cfg)
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(serialize_qasm(result.circuit))
    if args.stats:
        stats = dict(result.stats)
        stats["final_mapping"] = result.final_mapping
        stats["initial_mapping"] = result.initial_mapping
        with open(args.stats, "w", encoding="utf-8") as fh:
            json.dump(stats, fh, indent=2)
            fh.write("\n")
    return 0


def _load_perm(path) -> tuple[list[int], list[int] | None]:
    with open(path, encoding="utf-8") as fh:
        data = json.load(fh)
    if isinstance(data, list):
        return [int(x) for x in data], None
    final = [int(x) for x in data["final_mapping"]]
    initial = data.get("initial_mapping")
    return final, [int(x) for x in initial] if initial is not None else None


def _verify(args) -> int:
    original = load_circuit(args.original)
    routed = parse_qasm_file(args.routed)
    final, initial = _load_perm(args.perm)
    ok = equivalent_up_to_permutation(original, routed, final, initial)
    print("equivalent" if ok else "NOT equivalent")
    return 0 if ok else 1


def _bench(args) -> int:
    spec = load_bench_spec(args.spec, include_large=args.large)
    rows = run_bench(spec, jobs=args.jobs)
    if spec.output:
        write_csv(rows, spec.output)
        print(f"wrote {spec.output}")
    else:
        sys.stdout.write(rows_to_csv(rows))
    return 0


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "route":
            return _route(args)
        if args.command == "verify":
            return _verify(args)
        return _bench(args)
    except Exception as exc:  # surface module errors as exit codes
        if args.debug:
            raise
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
