"""Release-gating acceptance suite.

One test per criterion, each printing a summary line.  The aggregate runs are
shared between criteria through module-scoped fixtures so the whole module
stays inside its time budget (run with `pytest tests/test_acceptance.py -v -s`).
"""

import itertools
import math
import time

import numpy as np
import pytest

from optswap.bench import SUITE, BenchSpec, builtin_circuit, rows_to_csv, run_bench
from optswap.circuit import Circuit, metrics
from optswap.gates import CX_MATRIX, Gate, GateKind
from optswap.memo import CompileMemo
from optswap.routing import (
    NASSC,
    SABRE,
    RouterConfig,
    full_pipeline,
    optimize_circuit,
)
from optswap.sim import equivalent_up_to_permutation
from optswap.synthesis import kak_synthesize, min_cnot_count, pair_unitary
from optswap.topology import grid_map, linear_map, montreal_map

from conftest import haar_unitary, phase_distance

SEEDS = range(10)
SMALL_FIXTURES = [
    "grover_n4", "grover_n6", "grover_n8", "vqe_n8", "vqe_n12",
    "qpe_n9", "adder_n10",
]  # every committed fixture with at most 14 qubits

TOPOLOGY_THRESHOLDS = [
    ("montreal", montreal_map, 0.10),
    ("linear(25)", lambda: linear_map(25), 0.20),
    ("grid(5,5)", lambda: grid_map(5, 5), 0.15),
]


@pytest.fixture(scope="module")
def semantics_matrix():
    """Route every small fixture with both routers over seeds 0..9."""
    t0 = time.perf_counter()
    runs = []
    for name in SMALL_FIXTURES:
        circuit = builtin_circuit(name)
        cmap = linear_map(circuit.num_qubits)
        for algorithm in (SABRE, NASSC):
            for seed in SEEDS:
                res = full_pipeline(
                    circuit, cmap, RouterConfig(algorithm=algorithm, seed=seed)
                )
                runs.append((name, algorithm, seed, circuit, cmap, res))
    return runs, time.perf_counter() - t0


@pytest.fixture(scope="module")
def aggregate_runs():
    """Mean stats per (topology, circuit, router) over seeds 0..9."""
    out = {}
    t0 = time.perf_counter()
    for topo_name, factory, _ in TOPOLOGY_THRESHOLDS:
        cmap = factory()
        for name in SUITE:
            circuit = builtin_circuit(name)
            for algorithm in (SABRE, NASSC):
                sums = {}
                for seed in SEEDS:
                    res = full_pipeline(
                        circuit, cmap, RouterConfig(algorithm=algorithm, seed=seed)
                    )
                    for key, value in res.stats.items():
                        sums[key] = sums.get(key, 0.0) + value
                out[(topo_name, name, algorithm)] = {
                    k: v / len(SEEDS) for k, v in sums.items()
                }
    return out, time.perf_counter() - t0


def test_criterion_1_semantics_preservation(semantics_matrix):
    runs, elapsed = semantics_matrix
    for name, algorithm, seed, circuit, cmap, res in runs:
        ok = equivalent_up_to_permutation(
            circuit, res.circuit, res.final_mapping, res.initial_mapping, tol=1e-8
        )
        assert ok, f"semantics broken: {name} {algorithm} seed {seed}"
    assert elapsed < 300, f"semantics matrix took {elapsed:.0f}s (budget 300s)"
    print(f"\nACCEPTANCE 1 PASS: {len(runs)} routed circuits equivalent at 1e-8 "
          f"({elapsed:.0f}s)")


def test_criterion_2_hardware_compliance(semantics_matrix):
    runs, _ = semantics_matrix
    checked = 0
    for name, algorithm, seed, circuit, cmap, res in runs:
        for g in res.circuit.gates:
            if g.num_qubits == 2 and g.is_unitary_gate():
                assert cmap.has_edge(*g.qubits), (name, algorithm, seed, g)
                checked += 1
    print(f"\nACCEPTANCE 2 PASS: {checked} two-qubit gates all on couplings")


def test_criterion_3_synthesis_oracle():
    t0 = time.perf_counter()
    rng = np.random.default_rng(0xACCE97)
    worst = 0.0
    for _ in range(1000):
        u = haar_unitary(4, rng)
        circ = kak_synthesize(u, (0, 1))
        assert circ.count(GateKind.CX) == min_cnot_count(u)
        worst = max(worst, phase_distance(pair_unitary(circ.gates, (0, 1)), u))
    assert worst < 1e-8

    for trial in range(200):
        k = trial % 3
        u = np.kron(haar_unitary(2, rng), haar_unitary(2, rng))
        for _ in range(k):
            u = np.kron(haar_unitary(2, rng), haar_unitary(2, rng)) @ CX_MATRIX @ u
        assert min_cnot_count(u) == k, f"template with {k} CNOTs misclassified"
    elapsed = time.perf_counter() - t0
    assert elapsed < 120
    print(f"\nACCEPTANCE 3 PASS: 1000 random SU(4) re-synthesized "
          f"(worst residual {worst:.2e}), 200 templates exact ({elapsed:.0f}s)")


def test_criterion_4_deterministic_micro_case():
    circuit = Circuit(
        3,
        (
            Gate(GateKind.CRX, (1, 2), (math.pi / 3,)),
            Gate(GateKind.CRX, (0, 1), (math.pi / 5,)),
            Gate(GateKind.CRX, (0, 2), (math.pi / 7,)),
        ),
    )
    cmap = linear_map(3)
    nassc = [
        full_pipeline(circuit, cmap, RouterConfig(algorithm=NASSC, seed=s)).stats[
            "cnot_add"
        ]
        for s in SEEDS
    ]
    sabre = [
        full_pipeline(circuit, cmap, RouterConfig(algorithm=SABRE, seed=s)).stats[
            "cnot_add"
        ]
        for s in SEEDS
    ]
    assert nassc == [1] * 10, nassc
    assert set(sabre) == {1, 3}, sabre
    print(f"\nACCEPTANCE 4 PASS: optimization-aware router adds 1 CNOT on all "
          f"seeds; baseline adds {sorted(set(sabre))}")


def test_criterion_5_decomposition_micro_cases():
    from optswap.commutation import DecompositionLabel, commutative_cancellation
    from optswap.dag import build_dag
    from optswap.routing import RoutedOp, decompose_swaps
    from optswap.sim import circuit_unitary

    def swap_op(a, b, control):
        return RoutedOp(
            Gate(GateKind.SWAP, (a, b)), None, is_swap=True,
            label=DecompositionLabel(control, "commute1"),
        )

    # single-cancellation snippet: 3 CNOTs + one u3 survive
    ops = [
        RoutedOp(Gate(GateKind.CX, (1, 0)), 0),
        RoutedOp(Gate(GateKind.CX, (2, 0)), 1),
        swap_op(0, 1, control=1),
        RoutedOp(Gate(GateKind.U3, (1,), (0.3, 0.5, 0.7)), 2),
    ]
    raw = Circuit(3, tuple(decompose_swaps(ops)))
    final = optimize_circuit(raw, CompileMemo()).circuit
    m = metrics(final)
    assert m["cnot_count"] == 3
    assert sum(1 for g in final.gates if g.kind is GateKind.U3) == 1
    assert phase_distance(circuit_unitary(final), circuit_unitary(raw)) < 1e-8

    # sandwich: the boxed commute set lets both SWAPs drop one CNOT, so the
    # final circuit is 4 CNOTs plus the two controlled gates (the ladders of
    # the two SWAPs contribute six CNOTs and one facing pair cancels)
    ops = [
        swap_op(0, 1, control=1),
        RoutedOp(Gate(GateKind.CRX, (1, 2), (0.5,)), 0),
        RoutedOp(Gate(GateKind.CRX, (1, 3), (0.7,)), 1),
        swap_op(0, 1, control=1),
    ]
    raw = Circuit(4, tuple(decompose_swaps(ops)))
    final = commutative_cancellation(build_dag(raw), CompileMemo()).circuit
    m = metrics(final)
    assert m["cnot_count"] == 4
    assert sum(1 for g in final.gates if g.kind is GateKind.CRX) == 2
    assert phase_distance(circuit_unitary(final), circuit_unitary(raw)) < 1e-8
    print("\nACCEPTANCE 5 PASS: cancellation snippet -> 3 CNOT + 1 u3; "
          "SWAP sandwich -> 4 CNOT + 2 controlled gates")


def _geomean_delta(out, topo_name):
    logs = []
    for name in SUITE:
        sabre = out[(topo_name, name, SABRE)]["cnot_add"]
        nassc = out[(topo_name, name, NASSC)]["cnot_add"]
        if sabre > 0 and nassc > 0:
            logs.append(math.log(nassc / sabre))
    return 1.0 - math.exp(sum(logs) / len(logs))


def test_criterion_6_aggregate_improvement(aggregate_runs):
    out, elapsed = aggregate_runs
    lines = []
    for topo_name, _, threshold in TOPOLOGY_THRESHOLDS:
        delta = _geomean_delta(out, topo_name)
        lines.append(f"{topo_name}: {100 * delta:.1f}% (need >= {100 * threshold:.0f}%)")
        assert delta >= threshold, lines[-1]
    assert elapsed < 900, f"aggregate runs took {elapsed:.0f}s (budget 900s)"
    print(f"\nACCEPTANCE 6 PASS: geomean CNOT-add reduction "
          + "; ".join(lines) + f" ({elapsed:.0f}s)")


def test_criterion_7_transpile_time_ratio(aggregate_runs):
    out, _ = aggregate_runs
    worst = 0.0
    for topo_name, _, _ in TOPOLOGY_THRESHOLDS:
        for name in SUITE:
            ratio = (
                out[(topo_name, name, NASSC)]["wall_time_s"]
                / out[(topo_name, name, SABRE)]["wall_time_s"]
            )
            worst = max(worst, ratio)
            assert ratio <= 2.5, f"{topo_name}/{name}: wall ratio {ratio:.2f}"
    print(f"\nACCEPTANCE 7 PASS: worst transpile-time ratio {worst:.2f}x (cap 2.5x)")


def test_criterion_8_flag_sweep_consistency():
    t0 = time.perf_counter()
    cmap = montreal_map()
    seeds = range(3)
    within = 0
    for name in SUITE:
        circuit = builtin_circuit(name)
        sabre = np.mean([
            full_pipeline(circuit, cmap, RouterConfig(algorithm=SABRE, seed=s))
            .stats["cnot_add"] for s in seeds
        ])
        reductions = {}
        for flags in itertools.product((True, False), repeat=3):
            mean_add = np.mean([
                full_pipeline(
                    circuit, cmap,
                    RouterConfig(algorithm=NASSC, b_2q=flags[0],
                                 b_commute1=flags[1], b_commute2=flags[2], seed=s),
                ).stats["cnot_add"]
                for s in seeds
            ])
            reductions[flags] = (sabre - mean_add) / sabre if sabre else 0.0
        best = max(reductions.values())
        if reductions[(True, True, True)] >= best - 0.05:
            within += 1
    elapsed = time.perf_counter() - t0
    assert within >= 0.8 * len(SUITE), f"all-on within 5pp for only {within}/{len(SUITE)}"
    print(f"\nACCEPTANCE 8 PASS: all-optimizations within 5pp of the best "
          f"combination on {within}/{len(SUITE)} circuits ({elapsed:.0f}s)")


def test_criterion_9_complexity_regression():
    rng = np.random.default_rng(0xC0C0)
    sizes = [9, 16, 25, 36]
    times = []
    for n in sizes:
        gates = []
        for _ in range(100):
            a, b = (int(x) for x in rng.choice(n, size=2, replace=False))
            gates.append(Gate(GateKind.CX, (a, b)))
        circuit = Circuit(n, tuple(gates))
        cmap = linear_map(n)
        cfg = RouterConfig(algorithm=NASSC, seed=0)
        best = min(
            _timed(lambda: full_pipeline(circuit, cmap, cfg)) for _ in range(3)
        )
        times.append(best)
    exponent = np.polyfit(np.log(sizes), np.log(times), 1)[0]
    assert exponent <= 3.0, f"fit exponent {exponent:.2f}"
    print(f"\nACCEPTANCE 9 PASS: wall-time fit exponent {exponent:.2f} <= 3.0 "
          f"(times {['%.2f' % t for t in times]})")


def _timed(f):
    t0 = time.perf_counter()
    f()
    return time.perf_counter() - t0


def test_criterion_10_bench_determinism(tmp_path):
    spec = BenchSpec(
        circuits=["grover_n4", "qpe_n9"],
        topology="linear(9)",
        trials=3,
    )
    csv_a = rows_to_csv(run_bench(spec))
    csv_b = rows_to_csv(run_bench(spec))
    strip = lambda text: [
        ",".join(col for i, col in enumerate(line.split(",")) if i != 8)
        for line in text.splitlines()
    ]
    assert strip(csv_a) == strip(csv_b)
    print("\nACCEPTANCE 10 PASS: benchmark CSVs identical modulo time columns")
