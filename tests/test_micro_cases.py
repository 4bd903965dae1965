"""End-to-end micro-cases for the optimization-aware SWAP decomposition:
a labeled SWAP cancels against a commuting CNOT (single-cancellation case)
and a sandwiched commute set lets two SWAPs each drop one CNOT."""

import math

import numpy as np

from optswap.circuit import Circuit, metrics
from optswap.commutation import DecompositionLabel
from optswap.dag import build_dag, CircuitDag
from optswap.gates import Gate, GateKind
from optswap.memo import CompileMemo
from optswap.routing import (
    NASSC,
    RoutedOp,
    RouterConfig,
    decompose_swaps,
    full_pipeline,
    optimize_circuit,
)
from optswap.sim import circuit_unitary, equivalent_up_to_permutation
from optswap.topology import linear_map

from conftest import phase_distance


def cx(a, b):
    return Gate(GateKind.CX, (a, b))


def crx(t, a, b):
    return Gate(GateKind.CRX, (a, b), (t,))


def u3(q):
    return Gate(GateKind.U3, (q,), (0.3, 0.5, 0.7))


def swap_op(a, b, control=None, rationale="none"):
    label = DecompositionLabel(control, rationale) if control is not None \
        else DecompositionLabel.none()
    return RoutedOp(Gate(GateKind.SWAP, (a, b)), None, is_swap=True, label=label)


def test_single_cancellation_case_counts():
    """Shared-target CNOT pair, a 1q gate moved through the SWAP, and the
    labeled decomposition: the final snippet is 3 CNOTs plus one u3."""
    # routed form after the 1q move: CX(1,0), CX(2,0), SWAP(0,1) labeled so the
    # first ladder CNOT is CX(1,0), then the relocated u3 on wire 1
    ops = [
        RoutedOp(cx(1, 0), 0),
        RoutedOp(cx(2, 0), 1),
        swap_op(0, 1, control=1, rationale="commute1"),
        RoutedOp(u3(1), 2),
    ]
    raw = Circuit(3, tuple(decompose_swaps(ops)))
    assert metrics(raw)["cnot_count"] == 5
    final = optimize_circuit(raw, CompileMemo()).circuit
    m = metrics(final)
    assert m["cnot_count"] == 3
    assert sum(1 for g in final.gates if g.kind is GateKind.U3) == 1
    assert len(final.gates) == 4
    assert phase_distance(circuit_unitary(final), circuit_unitary(raw)) < 1e-8


def test_single_cancellation_unlabeled_orientation_stays_expensive():
    # with the default (wrong-way) orientation the cancellation cannot happen,
    # and block re-synthesis cannot cross the CX(2,0) interruption either
    ops = [
        RoutedOp(cx(1, 0), 0),
        RoutedOp(cx(2, 0), 1),
        RoutedOp(u3(0), 2),
        swap_op(0, 1),
    ]
    raw = Circuit(3, tuple(decompose_swaps(ops)))
    final = optimize_circuit(raw, CompileMemo()).circuit
    assert metrics(final)["cnot_count"] == 5


def test_swap_sandwich_case_counts():
    """Two SWAPs on one pair boxing two commuting controlled gates: each SWAP
    drops one CNOT, leaving 4 CNOTs plus the two controlled gates."""
    from optswap.commutation import commutative_cancellation

    ops = [
        swap_op(0, 1, control=1, rationale="commute2"),
        RoutedOp(crx(0.5, 1, 2), 0),
        RoutedOp(crx(0.7, 1, 3), 1),
        swap_op(0, 1, control=1, rationale="commute2"),
    ]
    raw = Circuit(4, tuple(decompose_swaps(ops)))
    assert metrics(raw)["cnot_count"] == 6
    final = commutative_cancellation(build_dag(raw), CompileMemo()).circuit
    assert metrics(final)["cnot_count"] == 4
    assert sum(1 for g in final.gates if g.kind is GateKind.CRX) == 2
    assert phase_distance(circuit_unitary(final), circuit_unitary(raw)) < 1e-8


def test_swap_sandwich_unlabeled_keeps_six():
    from optswap.commutation import commutative_cancellation

    ops = [
        swap_op(0, 1),
        RoutedOp(crx(0.5, 1, 2), 0),
        RoutedOp(crx(0.7, 1, 3), 1),
        swap_op(0, 1),
    ]
    raw = Circuit(4, tuple(decompose_swaps(ops)))
    final = commutative_cancellation(build_dag(raw), CompileMemo()).circuit
    assert metrics(final)["cnot_count"] == 6


def test_swap_sandwich_in_basis_gates():
    """The same sandwich after basis conversion (how it appears in the real
    pipeline): shared-control CNOT middles, full post-passes, still -2."""
    middles = [RoutedOp(cx(1, 2), 0), RoutedOp(cx(1, 3), 1)]
    labeled = [
        swap_op(0, 1, control=1, rationale="commute2"),
        *middles,
        swap_op(0, 1, control=1, rationale="commute2"),
    ]
    raw = Circuit(4, tuple(decompose_swaps(labeled)))
    final = optimize_circuit(raw, CompileMemo()).circuit
    assert metrics(final)["cnot_count"] == 6  # 4 ladder CX + the 2 middles
    assert phase_distance(circuit_unitary(final), circuit_unitary(raw)) < 1e-8


def test_router_reproduces_single_cancellation_case():
    """Routed end to end on a 3-qubit line, the shared-target pattern costs
    one extra CNOT: the router labels the SWAP and the passes cancel."""
    circ = Circuit(3, (cx(0, 1), cx(2, 1), u3(1), cx(0, 2)))
    cmap = linear_map(3)
    for seed in range(5):
        res = full_pipeline(circ, cmap, RouterConfig(algorithm=NASSC, seed=seed))
        assert res.stats["cnot_add"] == 1, (seed, res.stats)
        assert equivalent_up_to_permutation(
            circ, res.circuit, res.final_mapping, res.initial_mapping
        )
