"""Pinned benchmark regression numbers.

Absolute gate counts depend on the whole pipeline, so they are pinned to what
this repository produces (seeded runs are deterministic); comparisons against
the reference tables are kept as one-sided or banded checks.
"""

import numpy as np
import pytest

from optswap.bench import builtin_circuit, estimate_fidelity
from optswap.circuit import metrics
from optswap.memo import CompileMemo
from optswap.routing import NASSC, SABRE, RouterConfig, full_pipeline, optimize_circuit
from optswap.topology import NoiseProfile, linear_map, montreal_map


def mean_add(name, cmap, algorithm, seeds=range(10)):
    circuit = builtin_circuit(name)
    return float(np.mean([
        full_pipeline(circuit, cmap, RouterConfig(algorithm=algorithm, seed=s))
        .stats["cnot_add"]
        for s in seeds
    ]))


def test_grover4_baseline_cnot_total():
    """Pre-routing optimization leaves the 4-qubit search benchmark at
    exactly 84 CNOTs (pinned; the reference table row is 84 +- 10%)."""
    circuit = builtin_circuit("grover_n4")
    body = circuit.with_gates(g for g in circuit.gates if g.kind.value != "measure")
    baseline = metrics(optimize_circuit(body, CompileMemo()).circuit)
    assert baseline["cnot_count"] == 84
    assert 75.6 <= baseline["cnot_count"] <= 92.4


def test_grover4_montreal_reduction_at_least_40_percent():
    cmap = montreal_map()
    sabre = mean_add("grover_n4", cmap, SABRE)
    nassc = mean_add("grover_n4", cmap, NASSC)
    assert 1.0 - nassc / sabre >= 0.40


def test_bv19_montreal_pinned_band():
    """Repo-pinned seed-averaged CNOT additions for the 19-qubit hidden-string
    benchmark on the heavy-hex map (measured 84.0 / 90.6; band allows for
    environment-induced tie-break drift)."""
    cmap = montreal_map()
    sabre = mean_add("bv_n19", cmap, SABRE)
    nassc = mean_add("bv_n19", cmap, NASSC)
    assert 67 <= sabre <= 101
    assert 72 <= nassc <= 109
    # both sit at or below the reference implementation's 116 / 114 rows
    assert sabre <= 116 * 1.15
    assert nassc <= 114 * 1.15


def test_grover6_fidelity_estimate_favors_optimizing_router():
    cmap = montreal_map()
    circuit = builtin_circuit("grover_n6")
    profile = NoiseProfile.uniform(cmap, cx_error=0.01)
    five = {}
    for algorithm in (SABRE, NASSC):
        res = full_pipeline(circuit, cmap, RouterConfig(algorithm=algorithm, seed=0))
        five[algorithm] = estimate_fidelity(res.circuit, profile)
    assert five[NASSC] > five[SABRE]


def test_noise_aware_variants_run_and_comply():
    """The hardware-aware variants are the same routers over the noise-blended
    distance matrix."""
    cmap = montreal_map()
    profile = NoiseProfile.uniform(cmap, cx_error=0.02, swap_time=1.0)
    circuit = builtin_circuit("qpe_n9")
    for algorithm in (SABRE, NASSC):
        cfg = RouterConfig(algorithm=algorithm, seed=0, noise_profile=profile)
        res = full_pipeline(circuit, cmap, cfg)
        for g in res.circuit.gates:
            if g.num_qubits == 2 and g.is_unitary_gate():
                assert cmap.has_edge(*g.qubits)
