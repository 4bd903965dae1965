"""The per-compile memo (``optswap.memo``) must leave every output as it was:
passes given the memo produce the same gates and annotations as passes given
a memo that never stores, at any circuit size, and a compile keeps nothing
once it returns."""

import gc
import importlib
import math
import pkgutil
import weakref

import numpy as np
import pytest

import optswap
from optswap import commutation, routing
from optswap.circuit import Circuit
from optswap.commutation import commutation_analysis
from optswap.dag import build_dag
from optswap.gates import Gate, GateKind, gate_matrix
from optswap.memo import CompileMemo
from optswap.qasm import serialize_qasm
from optswap.routing import (
    NASSC,
    SABRE,
    RouterConfig,
    _annotate_for_routing,
    full_pipeline,
    optimize_circuit,
    resynthesize_blocks,
)
from optswap.sim import circuit_unitary
from optswap.synthesis import merge_1q_runs
from optswap.topology import grid_map

from annotate_reference import assert_same_annotations, force_annotations
from conftest import phase_distance


class _Forgetful(dict):
    """Drops every store, so every lookup misses."""

    def __setitem__(self, key, value):
        pass


def forgetful() -> CompileMemo:
    """A memo that stores nothing.  Its gate ids are all 0 and so are its
    content ids; ``content_ids`` is a plain list, which then holds only
    zeros."""
    return CompileMemo(blocks=_Forgetful(), gate_ids=_Forgetful(),
                       commute=_Forgetful(), merges=_Forgetful(),
                       contents=_Forgetful(), content_commute=_Forgetful(),
                       matrices=_Forgetful())


def random_cx(rng, n, count):
    return Circuit(n, tuple(
        Gate(GateKind.CX, tuple(int(q) for q in rng.choice(n, 2, replace=False)))
        for _ in range(count)
    ))


def random_angles(rng, n, count):
    """rz/u3/cx/cz/crx with random angles."""
    gates = []
    for _ in range(count):
        kind = [GateKind.RZ, GateKind.U3, GateKind.CX, GateKind.CZ, GateKind.CRX][
            int(rng.integers(5))
        ]
        if kind in (GateKind.RZ, GateKind.U3):
            qubits = (int(rng.integers(n)),)
        else:
            qubits = tuple(int(q) for q in rng.choice(n, 2, replace=False))
        arity = {GateKind.RZ: 1, GateKind.U3: 3, GateKind.CRX: 1}.get(kind, 0)
        gates.append(Gate(kind, qubits, tuple(rng.uniform(-math.pi, math.pi, arity))))
    return Circuit(n, tuple(gates))


def assert_same_circuit(a: Circuit, b: Circuit):
    assert a.gates == b.gates
    # repr of every parameter: also tells 0.0 from -0.0
    assert serialize_qasm(a) == serialize_qasm(b)


def optimize_and_annotate(circuit: Circuit, memo: CompileMemo):
    """Pre-optimization and both routing annotations, as full_pipeline runs
    them: one memo for all three, with every annotation forced."""
    logical = optimize_circuit(circuit, memo)
    reverse = logical.with_gates(tuple(reversed(logical.gates)))
    return logical, [force_annotations(_annotate_for_routing(c, memo))
                     for c in (logical, reverse)]


def assert_memo_changes_nothing(circuit: Circuit):
    memo = CompileMemo()
    got, got_dags = optimize_and_annotate(circuit, memo)
    want, want_dags = optimize_and_annotate(circuit, forgetful())
    assert memo.blocks and memo.commute and memo.content_commute and memo.matrices
    assert_same_circuit(got, want)
    for dag, ref in zip(got_dags, want_dags):
        assert_same_annotations(dag, ref)


def compile_both_ways(monkeypatch, circuit, cmap, cfg):
    """full_pipeline with its own memo, then with a memo that never stores."""
    with_memo = full_pipeline(circuit, cmap, cfg)
    monkeypatch.setattr(routing, "CompileMemo", forgetful)
    without = full_pipeline(circuit, cmap, cfg)
    monkeypatch.undo()
    return with_memo, without


def assert_same_result(a, b):
    assert_same_circuit(a.circuit, b.circuit)
    assert a.initial_mapping == b.initial_mapping
    assert a.final_mapping == b.final_mapping
    drop = "wall_time_s"
    assert ({k: v for k, v in a.stats.items() if k != drop}
            == {k: v for k, v in b.stats.items() if k != drop})


@pytest.mark.parametrize("seed", range(3))
def test_memo_keeps_wide_cx_compiles(monkeypatch, seed):
    circ = random_cx(np.random.default_rng([seed, 64]), 64, 80)
    assert_memo_changes_nothing(circ)
    for algorithm in (SABRE, NASSC):
        cfg = RouterConfig(algorithm=algorithm, seed=seed)
        assert_same_result(*compile_both_ways(monkeypatch, circ, grid_map(8, 8), cfg))


@pytest.mark.parametrize("seed", range(4))
def test_memo_keeps_random_angle_compiles(monkeypatch, seed):
    circ = random_angles(np.random.default_rng([seed, 5]), 6, 150)
    assert_memo_changes_nothing(circ)
    cfg = RouterConfig(algorithm=NASSC, seed=seed)
    assert_same_result(*compile_both_ways(monkeypatch, circ, grid_map(2, 3), cfg))


def test_mirrored_block_reuses_the_stored_synthesis():
    def block(a, b):
        return [Gate(GateKind.CRX, (a, b), (0.7,)),
                Gate(GateKind.U3, (a,), (0.3, 0.2, 0.1)),
                Gate(GateKind.CZ, (a, b))]

    # (1, 0) mirrors (0, 1): same content, so one entry; on (2, 3) the u3 sits
    # on the pair's second qubit, which is other content with the same gates
    first, mirrored = block(0, 1), block(1, 0)
    other = [Gate(GateKind.CRX, (2, 3), (0.7,)),
             Gate(GateKind.U3, (3,), (0.3, 0.2, 0.1)),
             Gate(GateKind.CZ, (2, 3))]
    circ = Circuit(4, tuple(first + [Gate(GateKind.CX, (1, 2))] + mirrored + other))
    memo = CompileMemo()
    out = resynthesize_blocks(build_dag(circ), memo).circuit
    assert_same_circuit(out, resynthesize_blocks(build_dag(circ), forgetful()).circuit)
    assert phase_distance(circuit_unitary(out), circuit_unitary(circ)) < 1e-9
    assert len(memo.blocks) == 3  # four blocks, the mirrored pair shares one
    assert_memo_changes_nothing(circ)


@pytest.mark.parametrize("zero_first", [0.0, -0.0])
def test_signed_zero_rotations_share_an_entry_with_the_same_output(zero_first):
    def block(a, b, zero):
        return [Gate(GateKind.RZ, (a,), (zero,)),
                Gate(GateKind.CRX, (a, b), (0.4,)),
                Gate(GateKind.U3, (b,), (zero, 0.3, -zero))]

    circ = Circuit(4, tuple(block(0, 1, zero_first) + block(2, 3, -zero_first)))
    memo = CompileMemo()
    out = resynthesize_blocks(build_dag(circ), memo).circuit
    assert len(memo.blocks) == 1
    assert_same_circuit(out, resynthesize_blocks(build_dag(circ), forgetful()).circuit)
    assert_memo_changes_nothing(circ)


def counted_commute_calls(monkeypatch) -> list:
    calls = []
    decide = commutation.gates_commute

    def counted(g1, g2):
        calls.append((g1, g2))
        return decide(g1, g2)

    monkeypatch.setattr(commutation, "gates_commute", counted)
    return calls


def analysed_with_and_without_memo(circuit: Circuit):
    """Commute sets from commutation_analysis with a memo and with a memo
    that never stores; asserts they are the same."""
    dag, ref = build_dag(circuit), build_dag(circuit)
    commutation_analysis(dag, CompileMemo())
    commutation_analysis(ref, forgetful())
    assert dag.commute_set == ref.commute_set
    return dag.commute_set


def test_commute_decisions_are_shared_by_wires_with_the_same_pattern(monkeypatch):
    calls = counted_commute_calls(monkeypatch)
    # on each pair: wire a sees (cx, rz), wire a + 1 sees (x, cx)
    gates = []
    for a in (0, 2, 4, 6):
        gates += [Gate(GateKind.RZ, (a,), (0.3,)), Gate(GateKind.CX, (a, a + 1)),
                  Gate(GateKind.X, (a + 1,))]
    circ = Circuit(8, tuple(gates))
    commutation_analysis(build_dag(circ), CompileMemo())
    assert len(calls) == 2
    commutation_analysis(build_dag(circ), forgetful())
    assert len(calls) == 2 + 8
    analysed_with_and_without_memo(circ)


def test_commute_decisions_keep_the_relative_wires(monkeypatch):
    calls = counted_commute_calls(monkeypatch)
    # the same two contents: on wire 1 a control meets a target, on wire 3
    # two CXs share their control
    cx = [Gate(GateKind.CX, pair) for pair in ((0, 1), (1, 2), (3, 4), (3, 5))]
    circ = Circuit(6, tuple(cx))
    commutation_analysis(build_dag(circ), CompileMemo())
    assert len(calls) == 2  # one per pattern
    sets = analysed_with_and_without_memo(circ)
    assert sets[(0, 1)] != sets[(1, 1)]
    assert sets[(2, 3)] == sets[(3, 3)]


def merged_with_and_without_memo(circuits):
    """merge_1q_runs over each circuit with one memo for all of them, and
    with a memo that never stores; asserts the outputs are the same."""
    memo = CompileMemo()
    for circuit in circuits:
        got = merge_1q_runs(build_dag(circuit), memo).circuit
        want = merge_1q_runs(build_dag(circuit), forgetful()).circuit
        assert_same_circuit(got, want)
    return memo


def random_1q_runs(rng, n, count, pool):
    """Gates drawn from `pool` (1q gates on qubit 0) put on random wires,
    with a CX now and then to end runs."""
    gates = []
    for _ in range(count):
        if rng.random() < 0.15:
            gates.append(Gate(GateKind.CX, tuple(int(q) for q in rng.choice(n, 2, replace=False))))
        else:
            gates.append(pool[int(rng.integers(len(pool)))].remapped([int(rng.integers(n))]))
    return Circuit(n, tuple(gates))


@pytest.mark.parametrize("seed", range(3))
def test_merge_memo_keeps_random_angle_merges(seed):
    rng = np.random.default_rng([seed, 1])
    angles = rng.uniform(-math.pi, math.pi, 6)
    pool = [Gate(GateKind.H, (0,)), Gate(GateKind.SX, (0,)), Gate(GateKind.X, (0,)),
            Gate(GateKind.RZ, (0,), (angles[0],)), Gate(GateKind.RZ, (0,), (-angles[0],)),
            Gate(GateKind.U3, (0,), tuple(angles[1:4])),
            Gate(GateKind.U3, (0,), (angles[4], 0.0, -angles[5]))]
    circ = random_1q_runs(rng, 4, 300, pool)
    memo = merged_with_and_without_memo([circ, circ.with_gates(circ.gates[::-1])])
    assert memo.merges


def test_merge_memo_keeps_the_sign_of_zero_params():
    pool = [Gate(GateKind.H, (0,)), Gate(GateKind.Y, (0,)), Gate(GateKind.Z, (0,))]
    for z1 in (0.0, -0.0):
        for z2 in (0.0, -0.0):
            pool += [Gate(GateKind.RZ, (0,), (z1,)),
                     Gate(GateKind.U3, (0,), (z1, z2, 0.0)),
                     Gate(GateKind.U3, (0,), (math.pi, z1, -z2)),
                     Gate(GateKind.U3, (0,), (0.7, z2, z1))]
    circ = random_1q_runs(np.random.default_rng(3), 3, 400, pool)
    merged_with_and_without_memo([circ, circ.with_gates(circ.gates[::-1])])
    # runs that differ only in the sign of a zero param are merged apart
    runs = [[Gate(GateKind.H, (q,)), Gate(GateKind.RZ, (q,), (z1,)),
             Gate(GateKind.U3, (q,), (0.4, z2, 0.0))]
            for q, (z1, z2) in enumerate([(0.0, 0.0), (0.0, -0.0), (-0.0, 0.0), (-0.0, -0.0)])]
    memo = merged_with_and_without_memo([Circuit(4, tuple(g for run in runs for g in run))])
    assert len(memo.merges) == 4


def test_compile_frees_its_memo_without_the_cycle_collector(monkeypatch):
    # the router's DAGs hold the memo; a cycle through them kept every
    # compile's memo alive until the next full collection
    memos = []

    class Recorded(CompileMemo):
        def __init__(self):
            super().__init__()
            memos.append(weakref.ref(self))

    monkeypatch.setattr(routing, "CompileMemo", Recorded)
    circ = random_angles(np.random.default_rng(11), 5, 80)
    gc.disable()
    try:
        for algorithm in (SABRE, NASSC):
            full_pipeline(circ, grid_map(2, 3), RouterConfig(algorithm=algorithm))
            assert memos[-1]() is None
    finally:
        gc.enable()
    assert len(memos) == 2


def test_matrix_memo_keeps_signed_zeros_apart_and_read_only():
    memo = CompileMemo()
    gates = [Gate(GateKind.U3, (q,), params) for q, params in enumerate(
        [(0.0, 0.3, 0.0), (-0.0, 0.3, 0.0), (0.0, 0.3, -0.0), (0.0, 0.3, 0.0)])]
    gates += [Gate(GateKind.RZ, (0,), (0.0,)), Gate(GateKind.RZ, (1,), (-0.0,)),
              Gate(GateKind.H, (0,)), Gate(GateKind.CZ, (0, 1)),
              Gate(GateKind.CRX, (0, 1), (-0.0,))]
    for gate in gates:
        m = memo.matrix(gate)
        assert not m.flags.writeable
        with pytest.raises(ValueError):
            m[0, 0] = 2.0
        assert m is memo.matrix(gate.remapped({q: q + 5 for q in gate.qubits}))
        want = gate_matrix(gate)
        # bit for bit, signed zeros included
        assert m.tobytes() == want.tobytes()
    # the first and last u3 share one entry; each signed zero is its own
    assert len(memo.matrices) == len(gates) - 1
    assert memo.matrix(gates[0]) is memo.matrix(gates[3])
    assert memo.matrix(gates[0]) is not memo.matrix(gates[1])
    assert memo.matrix(gates[4]) is not memo.matrix(gates[5])


def _module_state():
    """Sizes of every module-level container and function cache in optswap."""
    sizes = {}
    for info in pkgutil.iter_modules(optswap.__path__):
        module = importlib.import_module(f"optswap.{info.name}")
        for name, value in vars(module).items():
            key = f"{info.name}.{name}"
            if isinstance(value, (dict, list, set)):
                sizes[key] = len(value)
            elif hasattr(value, "cache_info"):
                sizes[key] = value.cache_info().currsize
    return sizes


def test_compile_keeps_no_memo_after_it_returns(monkeypatch):
    memos = []  # (weak reference, entries when a resynthesis pass began)

    class Recorded(CompileMemo):
        pass

    resynthesize = routing.resynthesize_blocks

    def spy(dag, memo):
        assert type(memo) is Recorded  # the compile's own memo
        memos.append((weakref.ref(memo), len(memo.blocks)))
        return resynthesize(dag, memo)

    circ = random_angles(np.random.default_rng(11), 5, 80)
    cfg = RouterConfig(algorithm=NASSC)
    full_pipeline(circ, grid_map(2, 3), cfg)  # fills the process-wide lru
    before = _module_state()
    monkeypatch.setattr(routing, "CompileMemo", Recorded)
    monkeypatch.setattr(routing, "resynthesize_blocks", spy)
    results = []
    for _ in range(2):
        start = len(memos)
        results.append(full_pipeline(circ, grid_map(2, 3), cfg))
        gc.collect()
        compile_memos = memos[start:]
        assert len({id(ref) for ref, _ in compile_memos}) == 1  # one per compile
        assert compile_memos[0][1] == 0  # nothing carried over
        assert all(ref() is None for ref, _ in compile_memos)  # freed
        assert any(size > 0 for _, size in compile_memos)  # and used
    after = _module_state()
    changed = {k for k in before if before[k] != after[k]} | (after.keys() - before.keys())
    assert changed <= {"commutation._commute_key"}
    assert_same_result(*results)
