"""Stacked classification and re-synthesis against the per-matrix reference
(tests/kak_reference.py): the same counts and the same gates, params equal
bit for bit (signed zeros included), whether a matrix comes alone or in a
stack; and a resynthesis pass that stacks its blocks leaves the memo a
block-by-block pass leaves."""

import numpy as np
import pytest

import kak_reference as ref
from optswap import routing, synthesis
from optswap.circuit import Circuit
from optswap.dag import build_dag
from optswap.gates import CX_MATRIX, SWAP_MATRIX, Gate, GateKind
from optswap.memo import CompileMemo
from optswap.synthesis import (
    NotUnitary,
    SynthesisResidual,
    _CNOT10,
    _S_SX,
    _gamma,
    kak_synthesize,
    min_cnot_count,
    pair_unitary,
    to_su4,
)

from conftest import haar_unitary
from test_routing import random_annotated_circuit
from test_synthesis import dressed_template


def local(rng):
    return np.kron(haar_unitary(2, rng), haar_unitary(2, rng))


def tiny(rng):
    return float(rng.choice([-1, 1]) * 10 ** rng.uniform(-15, -8))


def cases(rng) -> dict[str, list[np.ndarray]]:
    """Seeded unitaries of every kind the stacked code branches on."""
    out = {
        "mixed counts": [dressed_template(k, rng) for k in (0, 1, 2, 3) for _ in range(6)]
        + [haar_unitary(4, rng) for _ in range(6)],
        "identity class": [np.eye(4, dtype=complex), np.exp(0.7j) * np.eye(4)]
        + [local(rng) for _ in range(4)],
        "swap times local": [SWAP_MATRIX @ local(rng) for _ in range(6)]
        + [SWAP_MATRIX.astype(complex)],
        "real spectrum": [local(rng) @ _CNOT10 @ _S_SX @ _CNOT10 @ local(rng)
                          for _ in range(4)] + [CX_MATRIX @ SWAP_MATRIX],
        # a controlled phase of 1e-6 fails the undressed attempt
        "dressed retry": [np.diag([1, 1, 1, np.exp(1e-6j)])],
    }
    lone = []
    for kind in (GateKind.CX, GateKind.CZ, GateKind.CRX):
        for _ in range(5):
            params = (tiny(rng),) if kind is GateKind.CRX else ()
            gates = [Gate(GateKind.RZ, (0,), (tiny(rng),)), Gate(kind, (0, 1), params),
                     Gate(GateKind.U3, (1,), (tiny(rng), tiny(rng), tiny(rng)))]
            lone.append(pair_unitary(gates, (0, 1)))
            lone.append(pair_unitary(gates[1:2], (0, 1)))
    out["lone cx, cz and crx at tiny angles"] = lone
    return out


def assert_same_circuits(got, want):
    assert repr(got.gates) == repr(want.gates)  # repr shows each float's sign
    assert got.num_qubits == want.num_qubits


def test_cases_reach_every_branch(rng):
    every = cases(rng)
    assert {ref.min_cnot_count(u) for u in every["mixed counts"]} == {0, 1, 2, 3}
    for u in every["swap times local"]:
        assert ref.min_cnot_count(u) == 3 and ref.min_cnot_count(u @ SWAP_MATRIX) == 0
    for u in every["real spectrum"]:
        assert ref.min_cnot_count(u) == 2
        assert np.abs(np.linalg.eigvals(_gamma(to_su4(u))).imag).max() < 1e-9
    attempts = []
    ref.kak_synthesize(every["dressed retry"][0], (0, 1), attempts=attempts)
    assert attempts[0] > 0


@pytest.mark.parametrize("pair", [(0, 1), (3, 1)])
def test_stacked_synthesis_equals_the_per_matrix_reference(rng, pair):
    every = cases(rng)
    us = [u for group in every.values() for u in group]
    order = rng.permutation(len(us))
    stack = np.stack([us[i] for i in order])
    want_counts = [ref.min_cnot_count(u) for u in stack]
    assert min_cnot_count(stack).tolist() == want_counts
    assert [min_cnot_count(u) for u in stack] == want_counts
    want = [ref.kak_synthesize(u, pair, 4) for u in stack]
    for got in (kak_synthesize(stack, pair, 4), kak_synthesize(stack, pair, 4, want_counts),
                [kak_synthesize(u, pair, 4) for u in stack]):
        assert len(got) == len(want)
        for g, w in zip(got, want):
            assert_same_circuits(g, w)


def test_a_branch_whose_lapack_call_raises_retries_each_block_alone(rng, monkeypatch):
    """Where a stacked eigendecomposition raises, each block of the branch
    starts again alone from the undressed attempt, as the reference does."""
    eigh = np.linalg.eigh

    def fails_on_stacks(a):
        if a.ndim == 3 and len(a) > 1:
            raise np.linalg.LinAlgError("stack refused")
        return eigh(a)

    every = cases(rng)
    stack = np.stack([u for group in every.values() for u in group])
    want = [ref.kak_synthesize(u, (0, 1)) for u in stack]
    monkeypatch.setattr(np.linalg, "eigh", fails_on_stacks)
    for g, w in zip(kak_synthesize(stack, (0, 1)), want):
        assert_same_circuits(g, w)


def test_a_stack_with_one_non_unitary_raises(rng):
    stack = np.stack([haar_unitary(4, rng), np.ones((4, 4)), haar_unitary(4, rng)])
    with pytest.raises(NotUnitary):
        min_cnot_count(stack)
    with pytest.raises(NotUnitary):
        kak_synthesize(stack, (0, 1))
    with pytest.raises(NotUnitary):
        min_cnot_count(np.ones((2, 3, 3)))


def memo_state(memo):
    return {key: (res.cx, res.cx_with_swap, repr(res.gates)) for key, res in memo.blocks.items()}


@pytest.mark.parametrize("seed", range(6))
def test_stacked_pass_leaves_the_memo_a_block_by_block_pass_leaves(seed):
    rng = np.random.default_rng([seed, 29])
    circ = random_annotated_circuit(rng, 5, 150)
    dag, ref_dag = build_dag(circ), build_dag(circ)
    memo, ref_memo = CompileMemo(), CompileMemo()
    for _ in range(3):  # later rounds meet entries filled by earlier ones
        dag = routing.resynthesize_blocks(dag, memo)
        ref_dag = ref.resynthesize_blocks(ref_dag, ref_memo)
        assert repr(dag.gates) == repr(ref_dag.gates)
        assert memo_state(memo) == memo_state(ref_memo)


def test_blocks_sharing_a_key_are_computed_once(monkeypatch):
    """Two blocks of one content on different pairs: one stacked row each
    for the count and the synthesis, and both blocks rewritten."""
    block = [Gate(GateKind.H, (0,)), Gate(GateKind.CRX, (0, 1), (0.3,)),
             Gate(GateKind.RZ, (1,), (0.2,))]
    twice = block + [g.remapped({0: 2, 1: 3}) for g in block]
    stacks = []

    def spy(name):
        fn = getattr(routing, name)

        def recorded(u, *args):
            stacks.append((name, len(u)))
            return fn(u, *args)

        monkeypatch.setattr(routing, name, recorded)

    spy("min_cnot_count")
    spy("kak_synthesize")
    memo = CompileMemo()
    out = routing.resynthesize_blocks(build_dag(Circuit(4, tuple(twice))), memo)
    assert stacks == [("min_cnot_count", 1), ("kak_synthesize", 1)]
    assert len(memo.blocks) == 1
    assert [g.kind for g in out.gates].count(GateKind.CRX) == 0
    ref_out = ref.resynthesize_blocks(build_dag(Circuit(4, tuple(twice))), CompileMemo())
    assert repr(out.gates) == repr(ref_out.gates)


def test_a_failing_block_raises_what_the_block_by_block_pass_raises(monkeypatch):
    # no rebuilt circuit is ever close enough: every attempt fails
    monkeypatch.setattr(synthesis, "_TOL", -1.0)
    monkeypatch.setattr(ref, "_TOL", -1.0)
    circ = Circuit(3, (Gate(GateKind.CRX, (0, 1), (0.4,)), Gate(GateKind.CZ, (1, 2))))
    with pytest.raises(SynthesisResidual):
        ref.resynthesize_blocks(build_dag(circ), CompileMemo())
    with pytest.raises(SynthesisResidual):
        routing.resynthesize_blocks(build_dag(circ), CompileMemo())
