import itertools
from dataclasses import dataclass

import numpy as np

from optswap import commutation
from optswap.circuit import Circuit
from optswap.commutation import (
    _commutator_max,
    _commute_key,
    _decide,
    _embedded,
    commutation_analysis,
    commutative_cancellation,
    gates_commute,
    predict_ccommute1,
    predict_ccommute2,
)
from optswap.dag import build_dag
from optswap.gates import _PARAM_ARITY, Gate, GateKind
from optswap.memo import CompileMemo
from optswap.sim import circuit_unitary

from conftest import phase_distance
from embed_reference import (
    reference_commutator_max,
    reference_commute,
    simulated_embedding,
)


def cx(a, b):
    return Gate(GateKind.CX, (a, b))


def crx(t, a, b):
    return Gate(GateKind.CRX, (a, b), (t,))


def u3(q, a=0.3, b=0.5, c=0.7):
    return Gate(GateKind.U3, (q,), (a, b, c))


# -- gates_commute --------------------------------------------------------------

_ONE_Q = (GateKind.ID, GateKind.X, GateKind.Y, GateKind.Z, GateKind.H,
          GateKind.SX, GateKind.RZ, GateKind.U3)
_TWO_Q = (GateKind.CX, GateKind.CY, GateKind.CZ, GateKind.CRX, GateKind.SWAP)


def _random_params(kind, rng, tiny=False):
    """Seeded angles; `tiny` draws magnitudes of 1e-10..1e-8, next to the
    commutator threshold of 1e-9."""
    count = _PARAM_ARITY.get(kind, 0)
    if tiny:
        return tuple(float(rng.choice([-1, 1]) * 10 ** rng.uniform(-10, -8))
                     for _ in range(count))
    return tuple(float(rng.uniform(-np.pi, np.pi)) for _ in range(count))


def _placements(kind, n):
    return itertools.permutations(range(n), 2 if kind in _TWO_Q else 1)


def test_embedding_equals_simulated_columns(rng):
    """Every gate kind, on every placement of 1..3 wires."""
    checked = 0
    for n in (1, 2, 3):
        for kind in _ONE_Q + _TWO_Q:
            for qubits in _placements(kind, n):
                for _ in range(3):
                    params = _random_params(kind, rng)
                    got = _embedded(kind, qubits, params, n)
                    want = simulated_embedding(kind, qubits, params, n)
                    assert got.shape == want.shape == (2**n, 2**n)
                    assert np.array_equal(got, want), (kind, qubits, n)
                    checked += 1
    assert checked == 3 * (8 * (1 + 2 + 3) + 5 * (2 + 6))


def test_commute_key_matches_simulated_reference(rng):
    """Random pairs, with angles both generic and near the 1e-9 commutator
    threshold, then CRX/RZ against X, CX and CRX at angles that straddle it."""
    kinds = _ONE_Q + _TWO_Q
    cases = []
    for trial in range(600):
        n = int(rng.integers(1, 4))
        case = []
        for _ in range(2):
            options = [k for k in kinds if n >= (2 if k in _TWO_Q else 1)]
            kind = options[int(rng.integers(len(options)))]
            qubits = tuple(int(q) for q in rng.permutation(n)[: 2 if kind in _TWO_Q else 1])
            case += [kind, qubits, _random_params(kind, rng, tiny=trial % 2 == 1)]
        cases.append(tuple(case) + (n,))
    near = []
    for angle in (1e-10, 5e-10, 1e-9, 2e-9, 1e-8):
        for first in ((GateKind.CRX, (0, 1), (angle,)), (GateKind.RZ, (1,), (angle,))):
            for second in ((GateKind.X, (1,), ()), (GateKind.CX, (1, 2), ()),
                           (GateKind.CRX, (2, 1), (angle,))):
                near.append(first + second + (3,))
    for group in (cases, near):
        decisions = set()
        for case in group:
            want = reference_commute(*case)
            assert _commute_key(*case) == want, case
            decisions.add(want)
        assert decisions == {True, False}


def _params_near_threshold(kind, rng):
    """Random angles, then angles that bring a 1q gate's commutator with a
    CX or CZ near the 1e-9 threshold: theta of 1e-12..1e-7 and, for the
    target of a CX, phi + lambda as near 0."""
    def tiny():
        return float(rng.choice([-1, 1]) * 10 ** rng.uniform(-12, -7))

    def angle():
        return float(rng.uniform(-np.pi, np.pi))

    if kind is GateKind.RZ:
        return [(angle(),) for _ in range(10)] + [(tiny(),) for _ in range(30)]
    if kind is GateKind.U3:
        cases = [(angle(), angle(), angle()) for _ in range(10)]
        cases += [(tiny(), angle(), angle()) for _ in range(15)]
        for _ in range(30):
            phi = angle()
            cases.append((tiny(), phi, -phi + tiny()))
        return cases
    return [()]


def test_commutator_of_1q_gate_and_controlled_pauli_matches_embedding(rng):
    """Every 1q kind against CX and CZ, with the 1q gate on either wire, the
    2q gate either way round, in both argument orders: the magnitude read
    off the 1q matrix equals the embedded products' bit for bit, and so
    does the decision."""
    near, decisions = 0, set()
    for kind in _ONE_Q:
        for pauli in (GateKind.CX, GateKind.CZ):
            for params in _params_near_threshold(kind, rng):
                for wire in (0, 1):
                    for pair in ((0, 1), (1, 0)):
                        one, two = (kind, (wire,), params), (pauli, pair, ())
                        for case in (one + two + (2,), two + one + (2,)):
                            want = reference_commutator_max(*case)
                            assert _commutator_max(*case) == want, case
                            assert _commute_key.__wrapped__(*case) == (want < 1e-9), case
                            decisions.add(want < 1e-9)
                            near += 1e-11 < want < 1e-7
    assert decisions == {True, False}
    assert near > 500


def test_role_keyed_decisions_equal_gates_commute(rng):
    """Every 1q kind against CX and CZ, on either wire, either way round, in
    both argument orders, at random and near-threshold angles: each decision
    ``_decide`` takes from one memo, shared by the orientations of the same
    role, equals ``gates_commute`` for that orientation."""
    memo = CompileMemo()
    shared = 0
    for kind in _ONE_Q:
        for pauli in (GateKind.CX, GateKind.CZ):
            for params in _params_near_threshold(kind, rng):
                for wire in (3, 5):
                    for pair in ((3, 5), (5, 3)):
                        one, two = Gate(kind, (wire,), params), Gate(pauli, pair)
                        for first, second in ((one, two), (two, one)):
                            before = len(memo.content_commute)
                            got = _decide(memo, memo.gate_id(first), first,
                                          memo.gate_id(second), second)
                            assert got == gates_commute(first, second), (first, second)
                            shared += len(memo.content_commute) == before
    # per content pair: CZ in one role, CX in two, of 8 orientations each
    assert len(memo.content_commute) < shared


def test_same_wire_commutator_equals_the_embedded_one(rng):
    """Every pair of 1q kinds on one wire, at random angles and at +-0.0 and
    +-pi in every param slot: the magnitude from the two gate matrices
    equals the one from their embeddings bit for bit."""
    special = (0.0, -0.0, np.pi, -np.pi)
    gates = []
    for kind in _ONE_Q:
        arity = _PARAM_ARITY.get(kind, 0)
        slots = [special + (float(rng.uniform(-np.pi, np.pi)),) for _ in range(arity)]
        gates += [(kind, (0,), params) for params in itertools.product(*slots)]
    assert len(gates) == 6 + 5 + 125
    for (k1, q1, p1), (k2, q2, p2) in itertools.product(gates, repeat=2):
        a, b = _embedded(k1, q1, p1, 1), _embedded(k2, q2, p2, 1)
        want = float(np.max(np.abs(a @ b - b @ a)))
        assert _commutator_max(k1, q1, p1, k2, q2, p2, 1) == want, (k1, p1, k2, p2)


def test_shared_target_cx_commute():
    assert gates_commute(cx(0, 2), cx(1, 2))


def test_control_meets_target_does_not_commute():
    assert not gates_commute(cx(0, 1), cx(1, 2))


def test_rz_on_control_commutes():
    assert gates_commute(Gate(GateKind.RZ, (0,), (0.4,)), cx(0, 1))


def test_x_on_target_commutes_but_not_on_control():
    assert gates_commute(Gate(GateKind.X, (1,)), cx(0, 1))
    assert not gates_commute(Gate(GateKind.X, (0,)), cx(0, 1))


def test_disjoint_support_always_commutes():
    assert gates_commute(cx(0, 1), cx(2, 3))


def test_crx_shares_control_with_cx():
    assert gates_commute(crx(0.7, 1, 2), cx(1, 0))
    assert gates_commute(crx(0.7, 1, 2), crx(0.3, 1, 3))


def test_commute_symmetry_and_reflexivity(rng):
    pool = [
        cx(0, 1), cx(1, 0), cx(1, 2), crx(0.5, 0, 2),
        Gate(GateKind.H, (1,)), Gate(GateKind.RZ, (2,), (0.9,)),
        Gate(GateKind.SWAP, (0, 2)), u3(0),
    ]
    for g in pool:
        assert gates_commute(g, g)
    for _ in range(40):
        g1, g2 = rng.choice(len(pool), size=2)
        assert gates_commute(pool[int(g1)], pool[int(g2)]) == gates_commute(
            pool[int(g2)], pool[int(g1)]
        )


def test_non_unitary_never_commutes():
    m = Gate(GateKind.MEASURE, (0,), clbit=0)
    assert not gates_commute(m, cx(0, 1))


# -- commutation analysis --------------------------------------------------------


def test_shared_target_chain_one_set():
    dag = build_dag(Circuit(4, (cx(0, 3), cx(1, 3), cx(2, 3))))
    commutation_analysis(dag, CompileMemo())
    ids = {dag.commute_set[(nid, 3)] for nid in dag.order}
    assert len(ids) == 1


def test_h_breaks_commute_sets():
    dag = build_dag(Circuit(2, (cx(0, 1), Gate(GateKind.H, (1,)), cx(0, 1))))
    commutation_analysis(dag, CompileMemo())
    ids = [dag.commute_set[(nid, 1)] for nid in dag.order]
    assert len(set(ids)) == 3


def test_controlled_gates_share_control_wire_set():
    # two controlled rotations hanging off the same control wire group together
    dag = build_dag(Circuit(4, (crx(0.5, 1, 2), crx(0.7, 1, 3))))
    commutation_analysis(dag, CompileMemo())
    a, b = dag.order
    assert dag.commute_set[(a, 1)] == dag.commute_set[(b, 1)]


def test_set_membership_search_cap():
    # 25 commuting CX on one target: the set keeps growing, membership checks
    # only consult the first 20, and cancellation still verifies in-betweens
    gates = tuple(cx(i % 3, 3) if False else cx((i % 3), 3) for i in range(25))
    dag = build_dag(Circuit(4, gates))
    commutation_analysis(dag, CompileMemo())
    ids = {dag.commute_set[(nid, 3)] for nid in dag.order}
    assert len(ids) == 1


# -- cancellation ----------------------------------------------------------------


def run_cancel(circ):
    return commutative_cancellation(build_dag(circ), CompileMemo()).circuit


def test_adjacent_cx_pair_cancels():
    assert run_cancel(Circuit(2, (cx(0, 1), cx(0, 1)))).gates == ()


def test_cancellation_across_commuting_gate():
    out = run_cancel(Circuit(3, (cx(0, 1), cx(2, 1), cx(0, 1))))
    assert out.gates == (cx(2, 1),)
    # and simulation agrees
    orig = Circuit(3, (cx(0, 1), cx(2, 1), cx(0, 1)))
    assert phase_distance(circuit_unitary(out.with_gates(out.gates)),
                          circuit_unitary(orig)) < 1e-10


def test_no_cancellation_through_blocker():
    circ = Circuit(2, (cx(0, 1), Gate(GateKind.H, (1,)), cx(0, 1)))
    assert len(run_cancel(circ).gates) == 3


def test_orientation_must_match():
    circ = Circuit(2, (cx(0, 1), cx(1, 0)))
    assert len(run_cancel(circ).gates) == 2


def test_1q_self_inverse_pairs():
    circ = Circuit(1, (Gate(GateKind.H, (0,)), Gate(GateKind.H, (0,)),
                       Gate(GateKind.Z, (0,)), Gate(GateKind.Z, (0,))))
    assert run_cancel(circ).gates == ()


def test_cancellation_requires_both_wires_clear():
    # the two CX share a set on wire 0 but H(1) blocks wire 1
    circ = Circuit(3, (cx(0, 1), Gate(GateKind.H, (1,)), cx(0, 1)))
    assert len(run_cancel(circ).gates) == 3


def test_cancellation_never_increases_and_preserves_unitary(rng):
    kinds = [lambda q: Gate(GateKind.H, (q,)), lambda q: Gate(GateKind.X, (q,)),
             lambda q: Gate(GateKind.Z, (q,)), lambda q: Gate(GateKind.RZ, (q,), (0.3,))]
    for _ in range(25):
        gates = []
        for _ in range(18):
            if rng.random() < 0.5:
                a, b = (int(x) for x in rng.choice(3, size=2, replace=False))
                gates.append(cx(a, b))
            else:
                gates.append(kinds[int(rng.integers(4))](int(rng.integers(3))))
        circ = Circuit(3, tuple(gates))
        out = run_cancel(circ)
        assert len(out.gates) <= len(circ.gates)
        assert phase_distance(circuit_unitary(out), circuit_unitary(circ)) < 1e-8


def test_fixpoint_cascades():
    # removing the inner pair exposes the outer pair
    circ = Circuit(3, (cx(0, 1), cx(2, 1), cx(2, 1), cx(0, 1)))
    assert run_cancel(circ).gates == ()


# -- predictors -------------------------------------------------------------------


@dataclass
class FakeEntry:
    gate: Gate
    node_id: int | None
    is_swap: bool = False


def _entries(dag, wire_gates):
    """Resolved-history entries for original dag nodes (physical == logical)."""
    out = []
    for item in wire_gates:
        if isinstance(item, FakeEntry):
            out.append(item)
        else:
            out.append(FakeEntry(dag.gates[item], item))
    return out


def test_predict_ccommute1_vqe_pattern():
    # two CX sharing a target plus a trailing 1q gate; the SWAP on (0, 1)
    # can cancel with the resolved CX(0, 1) once the u3 moves out of the way
    circ = Circuit(3, (cx(0, 1), cx(2, 1), u3(1)))
    dag = build_dag(circ)
    commutation_analysis(dag, CompileMemo())
    n_cx01, n_cx21, n_u3 = dag.order
    hist_0 = _entries(dag, [n_cx01])
    hist_1 = _entries(dag, [n_cx01, n_cx21, n_u3])
    value, label = predict_ccommute1(dag, hist_0, hist_1, 0, 1, 10, 11)
    assert value == 2
    assert label.rationale == "commute1"
    assert label.control_phys == 10  # control side of the found CX


def test_predict_ccommute1_no_cx_on_pair():
    circ = Circuit(3, (crx(0.5, 0, 1),))
    dag = build_dag(circ)
    commutation_analysis(dag, CompileMemo())
    hist = _entries(dag, [dag.order[0]])
    value, label = predict_ccommute1(dag, hist, hist, 0, 1, 0, 1)
    assert (value, label) == (0, None)


def test_predict_ccommute1_blocked_by_inserted_swap():
    circ = Circuit(2, (cx(0, 1),))
    dag = build_dag(circ)
    commutation_analysis(dag, CompileMemo())
    swap_entry = FakeEntry(Gate(GateKind.SWAP, (0, 1)), None, is_swap=True)
    hist = _entries(dag, [dag.order[0], swap_entry])
    value, label = predict_ccommute1(dag, hist, hist, 0, 1, 0, 1)
    assert value == 0


def test_predict_ccommute2_sandwich():
    # prior SWAP on the pair, two commuting controlled gates in between
    circ = Circuit(4, (crx(0.5, 1, 2), crx(0.7, 1, 3)))
    dag = build_dag(circ)
    prev = FakeEntry(Gate(GateKind.SWAP, (0, 1)), None, is_swap=True)
    mid_a, mid_b = dag.order
    hist_0 = [prev]
    hist_1 = [prev, FakeEntry(dag.gates[mid_a], mid_a),
              FakeEntry(dag.gates[mid_b], mid_b)]
    value, label, prev_found = predict_ccommute2(CompileMemo(), hist_0, hist_1, 0, 1)
    assert value == 2
    assert prev_found is prev
    assert label.control_phys == 1  # CX with control on wire 1 commutes with both


def test_predict_ccommute2_rejects_empty_sandwich():
    prev = FakeEntry(Gate(GateKind.SWAP, (0, 1)), None, is_swap=True)
    value, label, prev_found = predict_ccommute2(CompileMemo(), [prev], [prev], 0, 1)
    assert value == 0


def test_predict_ccommute2_non_commuting_middle():
    circ = Circuit(2, (Gate(GateKind.H, (1,)), cx(0, 1)))
    dag = build_dag(circ)
    prev = FakeEntry(Gate(GateKind.SWAP, (0, 1)), None, is_swap=True)
    h_entry = FakeEntry(dag.gates[0], 0)
    cx_entry = FakeEntry(dag.gates[1], 1)
    value, label, _ = predict_ccommute2(CompileMemo(), [prev, cx_entry],
                                        [prev, h_entry, cx_entry], 0, 1)
    assert value == 0


def test_predict_ccommute2_takes_its_decisions_from_the_compile_memo(monkeypatch):
    """The sandwich predictor decides each gate pair once per compile, and
    the same as ``gates_commute``."""
    circ = Circuit(4, (crx(0.5, 1, 2), u3(1), crx(0.7, 1, 3), cx(0, 1)))
    memo = CompileMemo()
    dag = build_dag(circ)
    prev = FakeEntry(Gate(GateKind.SWAP, (0, 1)), None, is_swap=True)
    hist_0 = [prev, FakeEntry(dag.gates[3], 3)]
    hist_1 = [prev] + [FakeEntry(dag.gates[nid], nid) for nid in dag.order]
    decided = []
    monkeypatch.setattr(commutation, "gates_commute",
                        lambda g1, g2: decided.append((g1, g2)) or gates_commute(g1, g2))
    first = predict_ccommute2(memo, hist_0, hist_1, 0, 1)
    assert decided and memo.commute
    assert all(memo.commute[(memo.gate_id(g1), memo.gate_id(g2))] == gates_commute(g1, g2)
               for g1, g2 in decided)
    count = len(decided)
    assert predict_ccommute2(memo, hist_0, hist_1, 0, 1) == first
    assert len(decided) == count
