"""Tests of the benchmark's own logic.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import json
import random
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import pytest  # noqa: E402

import checks  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from optswap import bench, qasm  # noqa: E402
from optswap.gates import GateKind  # noqa: E402
from optswap.routing import NASSC, RouterConfig, full_pipeline  # noqa: E402
from optswap.topology import builtin_map  # noqa: E402


NAMES = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]


@pytest.mark.parametrize("name", NAMES)
def test_sources_are_deterministic_per_seed(name):
    assert workloads.workload_sources(name, 7) == workloads.workload_sources(name, 7)


@pytest.mark.parametrize("name", ["wide_grid", "small_noisy"])
def test_generated_sources_change_with_seed(name):
    _, first, noise_a = workloads.workload_sources(name, 1)
    _, second, noise_b = workloads.workload_sources(name, 2)
    assert [t for _, t in first] != [t for _, t in second]
    assert noise_a == noise_b is None or noise_a != noise_b


def test_noise_table_keeps_the_same_values_across_seeds():
    edges = builtin_map("grid(2,5)").sorted_edges()
    a = workloads.random_noise_table(random.Random(1), edges)
    b = workloads.random_noise_table(random.Random(2), edges)
    assert a != b
    assert sorted(err for err, _ in a.values()) == sorted(err for err, _ in b.values())


def test_generated_circuits_have_the_declared_shape():
    rng = random.Random(0)
    cx = qasm.parse_qasm(workloads.random_cx_qasm(rng, 64, 80))
    assert cx.num_qubits == 64 and len(cx.gates) == 80
    assert all(g.kind is GateKind.CX for g in cx.gates)
    mixed = qasm.parse_qasm(workloads.random_angle_qasm(rng, 10, 150))
    assert mixed.num_qubits == 10 and len(mixed.gates) == 150
    assert {g.kind.value for g in mixed.gates} <= {"rz", "u3", "cx", "cz", "crx"}


def test_geomean_ratio_matches_bench_summary_row():
    # (sabre cnot_add, nassc cnot_add); a zero baseline is skipped by both
    pairs = [(40.0, 30.0), (12.0, 15.0), (0.0, 3.0), (25.0, 10.0)]
    rows = []
    for i, (base, value) in enumerate(pairs):
        rows.append(bench.BenchRow(name=f"c{i}", router="sabre", cnot_add=base))
        rows.append(bench.BenchRow(
            name=f"c{i}", router="nassc", cnot_add=value,
            delta_cnot_add=1.0 - value / base if base > 0 else None,
        ))
    summary = bench._summary_row(rows)
    ratio = run.geomean_ratio(pairs)
    assert ratio == pytest.approx((30 / 40 * 15 / 12 * 10 / 25) ** (1 / 3))
    assert 1.0 - ratio == pytest.approx(summary.delta_cnot_add, rel=1e-12)


def _routed_small_circuit():
    # 5 logical qubits on the 27-qubit device: the check must compact
    text = workloads.random_angle_qasm(random.Random(3), 5, 40)
    circuit = qasm.parse_qasm(text)
    cmap = builtin_map("montreal")
    return circuit, cmap, full_pipeline(circuit, cmap, RouterConfig(algorithm=NASSC))


def test_verifier_accepts_routed_circuit():
    circuit, cmap, res = _routed_small_circuit()
    assert checks.compliance_errors(res.circuit, cmap) == []
    a, b, _, _ = checks.compact(circuit, res.circuit, res.initial_mapping,
                                res.final_mapping)
    assert a.num_qubits == b.num_qubits < cmap.num_physical_qubits
    assert checks.equivalent(circuit, res.circuit, res.initial_mapping,
                             res.final_mapping) is True


def test_verifier_reports_a_dropped_gate():
    circuit, _, res = _routed_small_circuit()
    gates = list(res.circuit.gates)
    del gates[next(i for i, g in enumerate(gates) if g.kind is GateKind.CX)]
    broken = res.circuit.with_gates(gates)
    assert checks.equivalent(circuit, broken, res.initial_mapping,
                             res.final_mapping) is False


def test_compliance_flags_gates_off_the_coupling_map():
    cmap = builtin_map("montreal")
    off = next((a, b) for a in range(27) for b in range(27)
               if a != b and not cmap.has_edge(a, b))
    bad = qasm.parse_qasm(
        f'OPENQASM 2.0;\ninclude "qelib1.inc";\nqreg q[27];\n'
        f"cx q[{off[0]}],q[{off[1]}];\nswap q[0],q[1];\n"
    )
    assert len(checks.compliance_errors(bad, cmap)) == 2


def test_digest_ignores_wall_time_only():
    _, _, res = _routed_small_circuit()
    record = checks.compile_record("c", "nassc", res)
    res.stats["wall_time_s"] += 1.0
    assert checks.compile_record("c", "nassc", res) == record
    res.stats["swaps_inserted"] += 1
    assert checks.digest([checks.compile_record("c", "nassc", res)]) != checks.digest([record])


def test_normalized_scales_by_the_pass_mean_host_sample():
    ref = run.hostspeed.REFERENCE_S
    p = {"wall_s": [1.0, 3.0], "host_s": [ref, 2 * ref, 3 * ref]}
    # the host ran the reference task at half speed: halve the wall times
    assert run.normalized(p) == pytest.approx([0.5, 1.5])
