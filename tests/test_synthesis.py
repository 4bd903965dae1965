import math

import numpy as np
import pytest

from optswap import synthesis
from optswap.circuit import Circuit
from optswap.dag import build_dag
from optswap.gates import (
    _PARAM_ARITY,
    CX_MATRIX,
    SWAP_MATRIX,
    Gate,
    GateKind,
    gate_matrix,
)
from optswap.memo import CompileMemo
from optswap.routing import resynthesize_blocks
from optswap.sim import circuit_unitary
from optswap.synthesis import (
    NotUnitary,
    annotate_block_costs,
    block_results,
    block_unitary,
    collect_blocks,
    kak_synthesize,
    merge_1q_runs,
    min_cnot_count,
    pair_unitary,
    predict_c2q,
)

from conftest import haar_unitary, phase_distance
from kak_reference import u3_gate_from_matrix
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
    assert np.allclose(block_unitary(block, dag, CompileMemo()), np.eye(4))

    dag = build_dag(Circuit(2, (Gate(GateKind.SWAP, (0, 1)),)))
    (block,) = collect_blocks(dag)
    assert np.allclose(block_unitary(block, dag, CompileMemo()), SWAP_MATRIX)

    dag = build_dag(Circuit(2, (cx(0, 1), Gate(GateKind.SWAP, (0, 1)))))
    (block,) = collect_blocks(dag)
    assert np.allclose(block_unitary(block, dag, CompileMemo()), SWAP_MATRIX @ CX_MATRIX)


def test_block_unitary_reversed_pair_orientation():
    # pair is recorded as (0, 1); the flipped CX embeds with swapped bits
    dag = build_dag(Circuit(2, (cx(0, 1), cx(1, 0))))
    (block,) = collect_blocks(dag)
    assert block.qubit_pair == (0, 1)
    u = block_unitary(block, dag, CompileMemo())
    assert np.allclose(u, (SWAP_MATRIX @ CX_MATRIX @ SWAP_MATRIX) @ CX_MATRIX)


# -- block re-synthesis predictor ----------------------------------------------


def _annotated(gates, n):
    dag = build_dag(Circuit(n, tuple(gates)))
    blocks = collect_blocks(dag)
    return dag, blocks, CompileMemo()


def test_predict_c2q_single_cx_block(rng):
    # V-dressed single CX plus a SWAP re-synthesizes to 2 CNOTs: saving of 2
    gates = [
        Gate(GateKind.U3, (0,), tuple(rng.uniform(-2, 2, 3))),
        Gate(GateKind.U3, (1,), tuple(rng.uniform(-2, 2, 3))),
        cx(0, 1),
        Gate(GateKind.U3, (0,), tuple(rng.uniform(-2, 2, 3))),
        Gate(GateKind.U3, (1,), tuple(rng.uniform(-2, 2, 3))),
    ]
    dag, blocks, memo = _annotated(gates, 2)
    last_0 = dag.wires[0][-1]
    last_1 = dag.wires[1][-1]
    res = annotate_block_costs(dag, blocks[0], memo)
    assert (res.cx, res.cx_with_swap) == (1, 2)
    assert predict_c2q(dag, memo, last_0, last_1) == 2


def test_predict_c2q_no_block():
    dag, _, memo = _annotated([cx(0, 1), cx(1, 2)], 3)
    # predecessors on wires 0 and 2 belong to different blocks
    assert predict_c2q(dag, memo, dag.wires[0][-1], dag.wires[2][-1]) == 0
    assert predict_c2q(dag, memo, None, dag.wires[1][-1]) == 0


def test_predict_c2q_free_swap(rng):
    # generic three-CNOT block: appending a SWAP costs nothing extra
    gates = [cx(0, 1)]
    for _ in range(2):
        gates.append(Gate(GateKind.U3, (0,), tuple(rng.uniform(-2, 2, 3))))
        gates.append(Gate(GateKind.U3, (1,), tuple(rng.uniform(-2, 2, 3))))
        gates.append(cx(0, 1))
    dag, blocks, memo = _annotated(gates, 2)
    assert annotate_block_costs(dag, blocks[0], memo).cx == 3
    assert predict_c2q(dag, memo, dag.wires[0][-1], dag.wires[1][-1]) == 3


def test_predict_c2q_range(rng):
    for _ in range(20):
        k = int(rng.integers(0, 4))
        gates = []
        for i in range(max(k, 1)):
            gates.append(Gate(GateKind.U3, (0,), tuple(rng.uniform(-2, 2, 3))))
            gates.append(Gate(GateKind.U3, (1,), tuple(rng.uniform(-2, 2, 3))))
            if k:
                gates.append(cx(0, 1))
        dag, blocks, memo = _annotated(gates, 2)
        if not blocks:
            continue
        value = predict_c2q(dag, memo, dag.wires[0][-1], dag.wires[1][-1])
        assert 0 <= value <= 3


_ONE_Q_KINDS = (GateKind.ID, GateKind.X, GateKind.SX, GateKind.RZ, GateKind.H,
                GateKind.Y, GateKind.Z, GateKind.U3)


def random_single_cnot_block(rng, kind, pair):
    """A `kind` gate on `pair`, either way round, between runs of up to 300
    random 1q gates on the pair's wires; a third of the angles lie between
    1e-15 and 1e-8 in magnitude."""
    def angle():
        if rng.random() < 1 / 3:
            return float(rng.choice([-1, 1]) * 10 ** rng.uniform(-15, -8))
        return float(rng.uniform(-math.pi, math.pi))

    def run():
        out = []
        for _ in range(int(rng.integers(0, 301))):
            one = _ONE_Q_KINDS[int(rng.integers(len(_ONE_Q_KINDS)))]
            params = tuple(angle() for _ in range(_PARAM_ARITY.get(one, 0)))
            out.append(Gate(one, (int(rng.choice(pair)),), params))
        return out

    two = Gate(kind, pair if rng.random() < 0.5 else pair[::-1])
    return run() + [two] + run()


def test_single_cnot_block_costs_in_closed_form_equal_min_cnot_count(rng, monkeypatch):
    """A block whose one two-qubit gate is a CX, CY or CZ gets (1, 2) from
    its structure, and ``min_cnot_count`` agrees on its unitary and on the
    unitary with a SWAP appended.  Other single two-qubit blocks are left to
    the numerics."""
    blocks = []
    for trial in range(150):
        kind = (GateKind.CX, GateKind.CY, GateKind.CZ)[trial % 3]
        pair = ((0, 1), (3, 1))[int(rng.integers(2))]
        gates = random_single_cnot_block(rng, kind, pair)
        u = pair_unitary(gates, pair)
        assert (min_cnot_count(u), min_cnot_count(SWAP_MATRIX @ u)) == (1, 2), gates
        blocks.append((gates, pair))

    def uncalled(u):
        raise AssertionError("a single-CNOT block reached min_cnot_count")

    monkeypatch.setattr(synthesis, "min_cnot_count", uncalled)
    memo = CompileMemo()
    for gates, pair in blocks:
        res = block_results(memo, gates, pair)
        assert (res.cx, res.cx_with_swap, res.gates) == (1, 2, None)
    for gates in ([Gate(GateKind.CRX, (0, 1), (1e-6,))], [cx(0, 1), cx(1, 0)],
                  [Gate(GateKind.SWAP, (0, 1))], [Gate(GateKind.U3, (0,), (1.0, 2.0, 3.0))]):
        res = block_results(memo, gates, (0, 1))
        assert (res.cx, res.cx_with_swap) == (None, None)


def test_single_cy_and_cz_blocks_resynthesize_to_one_cnot(rng):
    for kind in (GateKind.CY, GateKind.CZ):
        gates = random_single_cnot_block(rng, kind, (0, 1))
        circ = Circuit(2, tuple(gates))
        out = resynthesize_blocks(build_dag(circ), CompileMemo()).circuit
        assert out.count(GateKind.CX) == 1 and out.count(kind) == 0
        assert phase_distance(circuit_unitary(out), circuit_unitary(circ)) < 1e-8


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
    "diagonal, so a run 2e-6 rad from the identity is dropped (ROADMAP item 1)",
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


@pytest.mark.xfail(
    strict=True,
    reason="u3_params reads phi and lam off m[1, 0] and -m[0, 1] when theta is "
    "about 4e-11 and those entries are rounding noise (ROADMAP item 1)",
)
def test_merge_1q_fuses_a_run_near_the_identity_into_its_product():
    # two u3 gates on one wire of rang10_5 in small_noisy instance 610
    # (perfbench/run.py --workload small_noisy --seed 305); the fused u3 has
    # theta about 4.4e-11 and sits 8.7e-7 from their product
    first = Gate(GateKind.U3, (0,), (1.5707963267949288, 3.14159265354545, 1.5715235865665012))
    second = Gate(GateKind.U3, (0,), (1.5707963267948966, -1.1268885334134553, 0.0))
    circ = Circuit(1, (first, second))
    merged = merge_1q_runs(build_dag(circ), CompileMemo()).circuit
    assert len(merged.gates) == 1
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
        u = block_unitary(blk, dag, CompileMemo())
        synth = kak_synthesize(u, blk.qubit_pair, 3)
        assert phase_distance(pair_unitary(synth.gates, blk.qubit_pair), u) < 1e-8
