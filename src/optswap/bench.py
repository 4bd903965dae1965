"""Benchmark harness: run circuit x router grids, average over seeds, and
emit a CSV comparing the optimization-aware router against the baseline."""

from __future__ import annotations

import csv
import io
import json
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace
from importlib import resources

from .circuit import Circuit
from .gates import GateKind
from .qasm import parse_qasm, parse_qasm_file
from .routing import NASSC, SABRE, RouterConfig, full_pipeline
from .topology import (
    NoiseProfile,
    load_noise_profile,
    resolve_coupling,
)

CSV_COLUMNS = [
    "name",
    "router",
    "qubits",
    "cnot_total_orig",
    "cnot_total",
    "cnot_add",
    "depth_total",
    "depth_add",
    "wall_time_s",
    "delta_cnot_total",
    "delta_cnot_add",
    "swaps_opt_fraction_2q",
    "swaps_opt_fraction_commute",
    "est_fidelity",
    "error",
]

SUITE = [
    "grover_n4",
    "grover_n6",
    "grover_n8",
    "vqe_n8",
    "vqe_n12",
    "bv_n19",
    "qft_n15",
    "qft_n20",
    "qpe_n9",
    "adder_n10",
]


class BenchError(RuntimeError):
    pass


def builtin_circuit(name: str) -> Circuit:
    ref = resources.files("optswap.benchmarks").joinpath(f"{name}.qasm")
    return parse_qasm(ref.read_text(encoding="utf-8"))


def load_circuit(spec: str) -> Circuit:
    try:
        return builtin_circuit(spec)
    except FileNotFoundError:
        return parse_qasm_file(spec)


@dataclass(frozen=True)
class BenchSpec:
    circuits: list[str]
    topology: str = "montreal"
    routers: tuple[RouterConfig, ...] = (
        RouterConfig(algorithm=SABRE),
        RouterConfig(algorithm=NASSC),
    )
    trials: int = 10
    output: str | None = None
    noise_profile_path: str | None = None
    large_circuits: list[str] = field(default_factory=list)

    def __post_init__(self):
        if self.trials < 1:
            raise BenchError("trials must be >= 1")
        if not self.circuits:
            raise BenchError("circuit list is empty")


def load_bench_spec(path, include_large: bool = False) -> BenchSpec:
    """Read a JSON bench spec; a field of the wrong shape is a BenchError
    that names it."""
    with open(path, encoding="utf-8") as fh:
        data = json.load(fh)
    if not isinstance(data, dict):
        raise BenchError(f"bench spec must be a JSON object, got {type(data).__name__}")
    if "circuits" not in data:
        raise BenchError("bench spec has no circuits")
    circuits = list(_field(data, "circuits", [], _list_of(str), "a list of strings"))
    large = list(_field(data, "large_circuits", [], _list_of(str), "a list of strings"))
    if include_large:
        circuits += large
    routers = _field(data, "routers", [{"algorithm": SABRE}, {"algorithm": NASSC}],
                     _list_of(dict), "a list of objects")
    return BenchSpec(
        circuits=circuits,
        topology=_field(data, "topology", "montreal", _is(str), "a string"),
        routers=tuple(router_config_from_dict(entry) for entry in routers),
        trials=_field(data, "trials", 10, lambda v: type(v) is int and v >= 1,
                      "an integer >= 1"),
        output=_field(data, "output", None, _is(str, type(None)), "a string"),
        noise_profile_path=_field(data, "noise_profile", None, _is(str, type(None)), "a string"),
        large_circuits=large,
    )


def _is(*kinds: type):
    return lambda value: isinstance(value, kinds)


def _list_of(kind: type):
    return lambda value: isinstance(value, list) and all(isinstance(v, kind) for v in value)


def _field(data: dict, key: str, default, valid, shape: str):
    """``data[key]`` (or `default` if absent), which `valid` must accept."""
    value = data.get(key, default)
    if not valid(value):
        raise BenchError(f"{key} must be {shape}, got {value!r}")
    return value


def router_config_from_dict(entry: dict) -> RouterConfig:
    known = {
        "algorithm", "extended_size", "extended_weight",
        "b_2q", "b_commute1", "b_commute2", "seed", "traversals",
    }
    bad = set(entry) - known
    if bad:
        raise BenchError(f"unknown router options: {sorted(bad)}")
    return RouterConfig(**entry)


@dataclass
class BenchRow:
    name: str
    router: str
    qubits: int = 0
    cnot_total_orig: float = 0.0
    cnot_total: float = 0.0
    cnot_add: float = 0.0
    depth_total: float = 0.0
    depth_add: float = 0.0
    wall_time_s: float = 0.0
    delta_cnot_total: float | None = None
    delta_cnot_add: float | None = None
    swaps_opt_fraction_2q: float = 0.0
    swaps_opt_fraction_commute: float = 0.0
    est_fidelity: float | None = None
    error: str = ""


def estimate_fidelity(circuit: Circuit, profile: NoiseProfile) -> float:
    """Product of per-CNOT edge success probabilities; 1q gates are ignored."""
    fid = 1.0
    for g in circuit.gates:
        if g.kind is GateKind.CX:
            fid *= 1.0 - profile.edge_error(*g.qubits)
    return fid


def _router_tag(cfg: RouterConfig) -> str:
    flags = "".join(
        "1" if b else "0" for b in (cfg.b_2q, cfg.b_commute1, cfg.b_commute2)
    )
    if cfg.algorithm == NASSC and flags != "111":
        return f"{cfg.algorithm}[{flags}]"
    return cfg.algorithm


def _run_cell(args):
    circuit, cmap, cfg, trials, profile = args
    sums: dict[str, float] = {}
    fidelities = []
    try:
        for seed in range(trials):
            res = full_pipeline(circuit, cmap, replace(cfg, seed=seed))
            for key, value in res.stats.items():
                sums[key] = sums.get(key, 0.0) + value
            if profile is not None:
                fidelities.append(estimate_fidelity(res.circuit, profile))
    except Exception as exc:  # record the failure in its row, keep running
        return exc
    means = {k: v / trials for k, v in sums.items()}
    if fidelities:
        means["est_fidelity"] = sum(fidelities) / len(fidelities)
    return means


def run_bench(spec: BenchSpec, jobs: int = 1) -> list[BenchRow]:
    """Per (circuit, router): `trials` runs with seeds 0..trials-1, averaged.

    Delta columns appear on non-baseline rows as 1 - value/baseline, where
    the baseline is the first configured router for the same circuit.  The
    summary row geomean-averages the per-circuit ratios.  At most one worker
    process runs per cell.
    """
    if isinstance(jobs, bool) or not isinstance(jobs, int) or jobs < 1:
        raise BenchError(f"jobs must be an integer >= 1, got {jobs!r}")
    cmap = resolve_coupling(spec.topology)
    profile = (
        load_noise_profile(spec.noise_profile_path)
        if spec.noise_profile_path
        else NoiseProfile.uniform(cmap)
    )
    circuits = [(name, load_circuit(name)) for name in spec.circuits]

    cells = []
    for name, circuit in circuits:
        for cfg in spec.routers:
            cells.append((name, circuit, cfg))
    # the fork start method launches every worker up front, needed or not
    workers = min(jobs, len(cells))
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            outputs = list(
                pool.map(
                    _run_cell,
                    [(c, cmap, cfg, spec.trials, profile) for _, c, cfg in cells],
                )
            )
    else:
        outputs = [
            _run_cell((c, cmap, cfg, spec.trials, profile)) for _, c, cfg in cells
        ]

    rows: list[BenchRow] = []
    baseline: dict[str, BenchRow] = {}
    for (name, circuit, cfg), means in zip(cells, outputs):
        row = BenchRow(name=name, router=_router_tag(cfg), qubits=circuit.num_qubits)
        if isinstance(means, Exception):
            row.error = f"{type(means).__name__}: {means}"
            rows.append(row)
            continue
        swaps = means.get("swaps_inserted", 0.0)
        row.cnot_total_orig = means["cnot_total_orig"]
        row.cnot_total = means["cnot_total"]
        row.cnot_add = means["cnot_add"]
        row.depth_total = means["depth_total"]
        row.depth_add = means["depth_add"]
        row.wall_time_s = means["wall_time_s"]
        row.swaps_opt_fraction_2q = means["swaps_opt_by_2q"] / swaps if swaps else 0.0
        row.swaps_opt_fraction_commute = (
            means["swaps_opt_by_commute"] / swaps if swaps else 0.0
        )
        row.est_fidelity = means.get("est_fidelity")
        base = baseline.get(name)
        if base is None:
            baseline[name] = row
        else:
            if base.cnot_total > 0:
                row.delta_cnot_total = 1.0 - row.cnot_total / base.cnot_total
            if base.cnot_add > 0:
                row.delta_cnot_add = 1.0 - row.cnot_add / base.cnot_add
        rows.append(row)

    rows.append(_summary_row(rows))
    return rows


def _summary_row(rows: list[BenchRow]) -> BenchRow:
    """Geometric-mean summary: 1 - geomean(value/baseline) per delta column."""
    summary = BenchRow(name="geomean", router="")
    for attr in ("delta_cnot_total", "delta_cnot_add"):
        ratios = [
            1.0 - getattr(r, attr)
            for r in rows
            if getattr(r, attr) is not None and 1.0 - getattr(r, attr) > 0
        ]
        if ratios:
            logmean = sum(math.log(x) for x in ratios) / len(ratios)
            setattr(summary, attr, 1.0 - math.exp(logmean))
    return summary


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def rows_to_csv(rows: list[BenchRow]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for row in rows:
        writer.writerow([_fmt(getattr(row, col)) for col in CSV_COLUMNS])
    return buf.getvalue()


def write_csv(rows: list[BenchRow], path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(rows_to_csv(rows))
