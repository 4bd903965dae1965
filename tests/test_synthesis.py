import math

import numpy as np
import pytest

from optswap.circuit import Circuit
from optswap.dag import build_dag
from optswap.gates import (
    CX_MATRIX,
    SWAP_MATRIX,
    Gate,
    GateKind,
    gate_matrix,
    u3_gate_from_matrix,
)
from optswap.memo import CompileMemo
from optswap.sim import circuit_unitary
from optswap.synthesis import (
    NotUnitary,
    annotate_block_costs,
    block_unitary,
    collect_blocks,
    kak_synthesize,
    merge_1q_runs,
    min_cnot_count,
    pair_unitary,
    predict_c2q,
)

from conftest import haar_unitary, phase_distance
from weyl_oracle import canonical_matrix, weyl_coordinates

PI4 = math.pi / 4


def dressed_template(k: int, rng) -> np.ndarray:
    """Brute-force oracle construction: k CNOTs with random 1q dressings needs
    exactly k CNOTs (generic 1q factors keep the interaction generic)."""
    u = np.kron(haar_unitary(2, rng), haar_unitary(2, rng))
    for _ in range(k):
        u = np.kron(haar_unitary(2, rng), haar_unitary(2, rng)) @ CX_MATRIX @ u
    return u


def test_min_cnot_known_gates():
    assert min_cnot_count(np.eye(4, dtype=complex)) == 0
    assert min_cnot_count(CX_MATRIX) == 1
    assert min_cnot_count(np.diag([1, 1, 1, -1]).astype(complex)) == 1  # CZ
    assert min_cnot_count(SWAP_MATRIX) == 3
    assert min_cnot_count(CX_MATRIX @ SWAP_MATRIX) == 2


def test_min_cnot_tiny_controlled_phase_still_two():
    u = np.diag([1, 1, 1, np.exp(1j * math.pi / 2**19)])
    assert min_cnot_count(u) == 2


def test_min_cnot_rejects_non_unitary():
    with pytest.raises(NotUnitary):
        min_cnot_count(np.ones((4, 4)))


@pytest.mark.parametrize("check", [min_cnot_count, lambda u: kak_synthesize(u, (0, 1))],
                         ids=["min_cnot_count", "kak_synthesize"])
def test_rejects_wrong_shape_and_near_unitary(check, rng):
    for wrong_shape in (np.eye(2), np.eye(3), np.eye(8)):
        with pytest.raises(NotUnitary):
            check(wrong_shape)
    u = haar_unitary(4, rng)
    off = np.eye(4, dtype=complex)
    off[0, 2] = 1e-6  # u u^dagger is 1e-6 off the identity, off its diagonal
    with pytest.raises(NotUnitary):
        check(off @ u)
    check(u)


def test_min_cnot_matches_template_oracle(rng):
    for trial in range(120):
        k = trial % 3
        assert min_cnot_count(dressed_template(k, rng)) == k


def test_min_cnot_local_invariance(rng):
    for _ in range(40):
        u = haar_unitary(4, rng)
        k1 = np.kron(haar_unitary(2, rng), haar_unitary(2, rng))
        k2 = np.kron(haar_unitary(2, rng), haar_unitary(2, rng))
        assert min_cnot_count(u) == min_cnot_count(k1 @ u @ k2)


def test_kak_synthesize_random(rng):
    for _ in range(60):
        u = haar_unitary(4, rng)
        circ = kak_synthesize(u, (0, 1))
        assert circ.count(GateKind.CX) == min_cnot_count(u) == 3
        assert phase_distance(pair_unitary(circ.gates, (0, 1)), u) < 1e-8


def test_kak_synthesize_special_gates():
    swap_circ = kak_synthesize(SWAP_MATRIX.astype(complex), (0, 1))
    assert swap_circ.count(GateKind.CX) == 3
    assert phase_distance(pair_unitary(swap_circ.gates, (0, 1)), SWAP_MATRIX) < 1e-10

    for u, k in ((np.eye(4, dtype=complex), 0), (CX_MATRIX, 1),
                 (CX_MATRIX @ SWAP_MATRIX, 2)):
        circ = kak_synthesize(u, (0, 1))
        assert circ.count(GateKind.CX) == k
        assert phase_distance(pair_unitary(circ.gates, (0, 1)), u) < 1e-8


def test_kak_synthesize_on_other_pairs(rng):
    u = haar_unitary(4, rng)
    circ = kak_synthesize(u, (5, 2), num_qubits=6)
    assert phase_distance(pair_unitary(circ.gates, (5, 2)), u) < 1e-8
    assert all(set(g.qubits) <= {5, 2} for g in circ.gates)


def test_weyl_coordinates_known():
    assert np.allclose(weyl_coordinates(CX_MATRIX), (PI4, 0, 0), atol=1e-9)
    assert np.allclose(weyl_coordinates(SWAP_MATRIX), (PI4, PI4, PI4), atol=1e-9)
    assert np.allclose(weyl_coordinates(CX_MATRIX @ SWAP_MATRIX), (PI4, PI4, 0), atol=1e-9)
    assert np.allclose(weyl_coordinates(np.eye(4)), (0, 0, 0), atol=1e-9)
    crx = gate_matrix(Gate(GateKind.CRX, (0, 1), (math.pi / 2,)))
    assert np.allclose(weyl_coordinates(crx), (math.pi / 8, 0, 0), atol=1e-9)


def test_weyl_chamber_ordering_and_invariance(rng):
    for _ in range(30):
        u = haar_unitary(4, rng)
        x, y, z = weyl_coordinates(u)
        assert PI4 + 1e-9 >= x >= y >= abs(z) - 1e-9
        k = np.kron(haar_unitary(2, rng), haar_unitary(2, rng))
        assert np.allclose(weyl_coordinates(k @ u), (x, y, z), atol=1e-7)


def test_weyl_consistent_with_min_cnot(rng):
    for _ in range(30):
        u = haar_unitary(4, rng)
        x, y, z = weyl_coordinates(u)
        count = min_cnot_count(u)
        if count <= 1:
            raise AssertionError("haar random should be generic")
        assert (count == 2) == (abs(z) < 1e-7)


def test_kak_synthesize_near_two_cnot_boundary(rng):
    """Unitaries at Weyl coordinates (pi/4, pi/4 - d, 0) need two CNOTs; for
    small d their gamma spectrum is close to, but not exactly, {-1, -1, 1, 1},
    which the fixed two-CNOT template for that spectrum cannot match."""
    for d in np.logspace(-9, -2, 15):
        core = canonical_matrix(PI4, PI4 - d, 0.0)
        for _ in range(5):
            u = (np.kron(haar_unitary(2, rng), haar_unitary(2, rng)) @ core
                 @ np.kron(haar_unitary(2, rng), haar_unitary(2, rng)))
            circ = kak_synthesize(u, (0, 1))
            assert circ.count(GateKind.CX) == min_cnot_count(u) == 2
            assert phase_distance(pair_unitary(circ.gates, (0, 1)), u) < 1e-8


# -- blocks -------------------------------------------------------------------


def cx(a, b):
    return Gate(GateKind.CX, (a, b))


def test_block_uninterrupted_pair():
    dag = build_dag(Circuit(2, (cx(0, 1), Gate(GateKind.RZ, (1,), (0.2,)), cx(0, 1))))
    blocks = collect_blocks(dag)
    assert len(blocks) == 1
    assert len(blocks[0].node_ids) == 3


def test_block_interruption_splits():
    dag = build_dag(Circuit(3, (cx(0, 1), cx(1, 2), cx(0, 1))))
    blocks = collect_blocks(dag)
    assert [len(b.node_ids) for b in blocks] == [1, 1, 1]
    assert [b.qubit_pair for b in blocks] == [(0, 1), (1, 2), (0, 1)]


def test_block_absorbs_leading_and_trailing_1q():
    gates = (
        Gate(GateKind.U3, (0,), (0.1, 0.2, 0.3)),
        Gate(GateKind.U3, (1,), (0.4, 0.5, 0.6)),
        cx(0, 1),
        Gate(GateKind.U3, (0,), (0.7, 0.8, 0.9)),
        Gate(GateKind.U3, (1,), (1.0, 1.1, 1.2)),
        Gate(GateKind.SWAP, (0, 1)),
    )
    dag = build_dag(Circuit(2, gates))
    blocks = collect_blocks(dag)
    assert len(blocks) == 1
    assert len(blocks[0].node_ids) == 6


def test_every_2q_gate_in_exactly_one_block(rng):
    gates = []
    for _ in range(40):
        a, b = rng.choice(4, size=2, replace=False)
        gates.append(cx(int(a), int(b)))
    dag = build_dag(Circuit(4, tuple(gates)))
    blocks = collect_blocks(dag)
    seen = [nid for b in blocks for nid in b.node_ids]
    assert sorted(seen) == sorted(dag.order)


def test_block_unitary_products():
    dag = build_dag(Circuit(2, (cx(0, 1), cx(0, 1))))
    (block,) = collect_blocks(dag)
    assert np.allclose(block_unitary(block, dag), np.eye(4))

    dag = build_dag(Circuit(2, (Gate(GateKind.SWAP, (0, 1)),)))
    (block,) = collect_blocks(dag)
    assert np.allclose(block_unitary(block, dag), SWAP_MATRIX)

    dag = build_dag(Circuit(2, (cx(0, 1), Gate(GateKind.SWAP, (0, 1)))))
    (block,) = collect_blocks(dag)
    assert np.allclose(block_unitary(block, dag), SWAP_MATRIX @ CX_MATRIX)


def test_block_unitary_reversed_pair_orientation():
    # pair is recorded as (0, 1); the flipped CX embeds with swapped bits
    dag = build_dag(Circuit(2, (cx(0, 1), cx(1, 0))))
    (block,) = collect_blocks(dag)
    assert block.qubit_pair == (0, 1)
    u = block_unitary(block, dag)
    assert np.allclose(u, (SWAP_MATRIX @ CX_MATRIX @ SWAP_MATRIX) @ CX_MATRIX)


# -- block re-synthesis predictor ----------------------------------------------


def _annotated(gates, n):
    dag = build_dag(Circuit(n, tuple(gates)))
    blocks = collect_blocks(dag)
    annotate_block_costs(dag, blocks, CompileMemo())
    return dag, blocks


def test_predict_c2q_single_cx_block(rng):
    # V-dressed single CX plus a SWAP re-synthesizes to 2 CNOTs: saving of 2
    gates = [
        Gate(GateKind.U3, (0,), tuple(rng.uniform(-2, 2, 3))),
        Gate(GateKind.U3, (1,), tuple(rng.uniform(-2, 2, 3))),
        cx(0, 1),
        Gate(GateKind.U3, (0,), tuple(rng.uniform(-2, 2, 3))),
        Gate(GateKind.U3, (1,), tuple(rng.uniform(-2, 2, 3))),
    ]
    dag, blocks = _annotated(gates, 2)
    last_0 = dag.wires[0][-1]
    last_1 = dag.wires[1][-1]
    assert dag.block_cx[blocks[0].block_id] == 1
    assert dag.block_cx_with_swap[blocks[0].block_id] == 2
    assert predict_c2q(dag, last_0, last_1) == 2


def test_predict_c2q_no_block():
    dag, _ = _annotated([cx(0, 1), cx(1, 2)], 3)
    # predecessors on wires 0 and 2 belong to different blocks
    assert predict_c2q(dag, dag.wires[0][-1], dag.wires[2][-1]) == 0
    assert predict_c2q(dag, None, dag.wires[1][-1]) == 0


def test_predict_c2q_free_swap(rng):
    # generic three-CNOT block: appending a SWAP costs nothing extra
    gates = [cx(0, 1)]
    for _ in range(2):
        gates.append(Gate(GateKind.U3, (0,), tuple(rng.uniform(-2, 2, 3))))
        gates.append(Gate(GateKind.U3, (1,), tuple(rng.uniform(-2, 2, 3))))
        gates.append(cx(0, 1))
    dag, blocks = _annotated(gates, 2)
    assert dag.block_cx[blocks[0].block_id] == 3
    assert predict_c2q(dag, dag.wires[0][-1], dag.wires[1][-1]) == 3


def test_predict_c2q_range(rng):
    for _ in range(20):
        k = int(rng.integers(0, 4))
        gates = []
        for i in range(max(k, 1)):
            gates.append(Gate(GateKind.U3, (0,), tuple(rng.uniform(-2, 2, 3))))
            gates.append(Gate(GateKind.U3, (1,), tuple(rng.uniform(-2, 2, 3))))
            if k:
                gates.append(cx(0, 1))
        dag, blocks = _annotated(gates, 2)
        if not blocks:
            continue
        value = predict_c2q(dag, dag.wires[0][-1], dag.wires[1][-1])
        assert 0 <= value <= 3


# -- 1q merging ----------------------------------------------------------------


def test_merge_1q_xx_cancels():
    dag = build_dag(Circuit(1, (Gate(GateKind.X, (0,)), Gate(GateKind.X, (0,)))))
    assert merge_1q_runs(dag, CompileMemo()).circuit.gates == ()


def test_merge_1q_rz_sum():
    dag = build_dag(
        Circuit(1, (Gate(GateKind.RZ, (0,), (0.3,)), Gate(GateKind.RZ, (0,), (0.5,))))
    )
    merged = merge_1q_runs(dag, CompileMemo()).circuit
    assert len(merged.gates) == 1
    assert merged.gates[0].kind is GateKind.U3
    expected = gate_matrix(Gate(GateKind.RZ, (0,), (0.8,)))
    assert phase_distance(gate_matrix(merged.gates[0]), expected) < 1e-10


def test_merge_1q_h_rz_h_is_rx():
    run = (Gate(GateKind.H, (0,)), Gate(GateKind.RZ, (0,), (math.pi / 2,)),
           Gate(GateKind.H, (0,)))
    dag = build_dag(Circuit(1, run))
    merged = merge_1q_runs(dag, CompileMemo()).circuit
    assert len(merged.gates) == 1
    rx = np.array(
        [[math.cos(math.pi / 4), -1j * math.sin(math.pi / 4)],
         [-1j * math.sin(math.pi / 4), math.cos(math.pi / 4)]]
    )
    assert phase_distance(gate_matrix(merged.gates[0]), rx) < 1e-10


def test_merge_1q_respects_wire_boundaries(rng):
    gates = (
        Gate(GateKind.H, (0,)),
        cx(0, 1),
        Gate(GateKind.RZ, (0,), (0.3,)),
        Gate(GateKind.RZ, (0,), (0.4,)),
        Gate(GateKind.H, (1,)),
    )
    circ = Circuit(2, gates)
    merged = merge_1q_runs(build_dag(circ), CompileMemo()).circuit
    assert phase_distance(circuit_unitary(merged), circuit_unitary(circ)) < 1e-10
    assert len(merged.gates) == 4  # the two RZ fused


@pytest.mark.xfail(
    strict=True,
    reason="is_identity_up_to_phase keeps allclose's rtol of 1e-5 on the "
    "diagonal, so a run 2e-6 rad from the identity is dropped (ROADMAP item 3)",
)
def test_merge_1q_keeps_a_run_just_off_the_identity():
    # two u3 gates whose product is diag(1, e^{i 2e-6}), as on wire 9 of
    # small_noisy instance 78's rang10_5
    first = Gate(GateKind.U3, (0,), (0.5, 0.2, 0.3))
    target = np.diag([1.0, np.exp(2e-6j)])
    second = u3_gate_from_matrix(target @ gate_matrix(first).conj().T, 0)
    circ = Circuit(1, (first, second))
    merged = merge_1q_runs(build_dag(circ), CompileMemo()).circuit
    assert phase_distance(circuit_unitary(circ), target) < 1e-12
    assert phase_distance(circuit_unitary(merged), circuit_unitary(circ)) < 1e-9


def test_block_resynthesis_preserves_simulation(rng):
    gates = []
    for _ in range(12):
        a, b = (int(x) for x in rng.choice(3, size=2, replace=False))
        gates.append(cx(a, b))
        gates.append(Gate(GateKind.U3, (a,), tuple(rng.uniform(-2, 2, 3))))
    circ = Circuit(3, tuple(gates))
    dag = build_dag(circ)
    blocks = collect_blocks(dag)
    u_full = circuit_unitary(circ)
    for blk in blocks:
        u = block_unitary(blk, dag)
        synth = kak_synthesize(u, blk.qubit_pair, 3)
        assert phase_distance(pair_unitary(synth.gates, blk.qubit_pair), u) < 1e-8
