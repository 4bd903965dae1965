"""Commutation analysis, commutative cancellation, and the router's
cancellation predictors.

Whether two gates commute is decided numerically: build both gates' matrices
on their joint support (at most three wires) straight from ``gate_matrix``,
as a Kronecker product with the identity on the other wires put into wire
order by one axis permutation, and compare the two products (a handful of
structural fast paths short-circuit the common cases, a 1q gate against
a CX or CZ is decided from the commutator's nonzero entries, which are
differences of the 1q matrix's entries, and two 1q gates on one wire
multiply their own matrices, with no embedding).  Per wire, gates are
grouped greedily into contiguous commute sets; a gate joins the current set
only if it commutes with every member among the first twenty (larger sets
are searched no deeper than that, so cancellation re-verifies the stretch
between a candidate pair).  ``commutative_cancellation`` takes a DAG and
returns one, like every optimization pass: each round that removes pairs
goes on with ``CircuitDag.with_gates`` of the gates left.

Within one compile every decision is memoized (``memo.CompileMemo``): each
pass looks up every node's gate id once, open sets carry the ids, and the
decision for (new gate, set member), or for a gate against the gates between
a cancelling pair, is looked up by the id pair.  Passes carry untouched gates
through unchanged, so the same pairs come back in every cancellation round,
every optimization round and both routing annotations.  An id pair new to
the compile is looked up by its gates' contents and relative wires, so the
same two gates on other wires are decided once.  A 1q gate against a CX or
CZ is looked up by its role instead (on the CX's control, on its target, or
on the CZ), since that is all the closed form reads: both argument orders
and both wire orders share one decision.  The router's sandwich predictor
(``predict_ccommute2``) looks its decisions up in the same memo, which its
DAG carries (``dag.memo``), by the ids of the physical gates it compares.

The process-wide ``_commute_key`` cache below serves decisions across
compiles, such as both routers' pre-optimization of one circuit; clearing
it before each compile made small_noisy compiles about 7% slower (median
of 10 alternations on a shared 2-core host).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .dag import CircuitDag
from .gates import Gate, GateKind, SELF_INVERSE_KINDS, gate_matrix, kron
from .memo import CompileMemo

SEARCH_CAP = 20

_CONTROLLED = {GateKind.CX, GateKind.CY, GateKind.CZ, GateKind.CRX}
# a gate of a kind in _ONE_QUBIT against one in _CONTROLLED_PAULI has its
# commutator read off the 1q matrix (``_commutator_max``)
_ONE_QUBIT = {GateKind.ID, GateKind.X, GateKind.SX, GateKind.RZ, GateKind.H,
              GateKind.Y, GateKind.Z, GateKind.U3}
_CONTROLLED_PAULI = {GateKind.CX, GateKind.CZ}


def _embedded(kind: GateKind, qubits: tuple[int, ...], params: tuple[float, ...],
              n: int) -> np.ndarray:
    """The gate's matrix on wires 0..n-1 (little-endian)."""
    full = kron(gate_matrix(Gate(kind, qubits, params)), np.eye(2 ** (n - len(qubits))))
    # as a (2,)*2n tensor, axis i of `full` (most significant first) is wire
    # order[i]: the gate's own wires, last listed first, then the others
    order = qubits[::-1] + tuple(w for w in range(n - 1, -1, -1) if w not in qubits)
    axes = [order.index(w) for w in range(n - 1, -1, -1)]
    tensor = full.reshape((2,) * (2 * n)).transpose(axes + [a + n for a in axes])
    return tensor.reshape(2**n, 2**n)


def _commutator_max(k1, q1, p1, k2, q2, p2, n) -> float:
    """Largest magnitude in the commutator of two gates on wires 0..n-1.

    A 1q gate against a CX or CZ on the same two wires takes only the
    commutator's nonzero entries.  The embedded CX and CZ are monomial with
    entries 0 and +-1, so every entry of both products is one exact product
    of a 1q entry, and each commutator entry is one subtraction of the same
    operands as below (up to sign): the result equals the embedded
    products' bit for bit.  Magnitudes are taken with numpy, whose complex
    abs differs from Python's ``abs`` in the last bit."""
    if n == 2 and k2 in _ONE_QUBIT and k1 in _CONTROLLED_PAULI:
        k1, q1, p1, k2, q2 = k2, q2, p2, k1, q1
    if n == 2 and k1 in _ONE_QUBIT and k2 in _CONTROLLED_PAULI:
        u = gate_matrix(Gate(k1, (0,), p1))
        if k2 is GateKind.CZ:
            entries = [-u[0, 1] - u[0, 1], u[1, 0] + u[1, 0]]
        elif q1[0] == q2[0]:  # on CX's control
            entries = [u[0, 1], u[1, 0]]
        else:  # on CX's target
            entries = [u[0, 1] - u[1, 0], u[0, 0] - u[1, 1]]
        return float(np.abs(np.array(entries)).max())
    if n == 1:  # _embedded would only flip the signs of some zeros
        a, b = gate_matrix(Gate(k1, q1, p1)), gate_matrix(Gate(k2, q2, p2))
    else:
        a, b = _embedded(k1, q1, p1, n), _embedded(k2, q2, p2, n)
    return float(np.max(np.abs(a @ b - b @ a)))


@lru_cache(maxsize=65536)
def _commute_key(k1, q1, p1, k2, q2, p2, n) -> bool:
    return _commutator_max(k1, q1, p1, k2, q2, p2, n) < 1e-9


def gates_commute(g1: Gate, g2: Gate) -> bool:
    """Commutator of the two gates on their joint support is zero (1e-9)."""
    if not (g1.is_unitary_gate() and g2.is_unitary_gate()):
        return False
    shared = set(g1.qubits) & set(g2.qubits)
    if not shared:
        return True
    if g1.kind is g2.kind and g1.qubits == g2.qubits and g1.params == g2.params:
        return True
    # controlled gates sharing their control wire commute when targets differ
    if (
        g1.kind in _CONTROLLED
        and g2.kind in _CONTROLLED
        and g1.qubits[0] == g2.qubits[0]
        and g1.qubits[1] != g2.qubits[1]
    ):
        return True
    if (
        g1.kind is GateKind.CX
        and g2.kind is GateKind.CX
        and g1.qubits[1] == g2.qubits[1]
        and g1.qubits[0] != g2.qubits[0]
    ):
        return True
    wires = sorted(set(g1.qubits) | set(g2.qubits))
    relabel = {w: i for i, w in enumerate(wires)}
    key1 = tuple(relabel[q] for q in g1.qubits)
    key2 = tuple(relabel[q] for q in g2.qubits)
    p1 = tuple(round(p, 12) for p in g1.params)
    p2 = tuple(round(p, 12) for p in g2.params)
    return _commute_key(g1.kind, key1, p1, g2.kind, key2, p2, len(wires))


def _decide(memo: CompileMemo, gid: int, gate: Gate, oid: int, other: Gate) -> bool:
    """``gates_commute(gate, other)`` for an id pair new to the compile,
    decided once per content pair and the way the two gates meet, which is
    all the decision reads of them.  A 1q gate meets a CX or CZ on one of
    its wires in a role, whichever comes first: on the CX's control (0), on
    its target (1), or on the CZ (-1); ``_commutator_max`` reads no more.
    Any other pair meets in its wires, relabelled in one tuple; its split is
    fixed by the first gate's kind, except for a barrier, which commutes
    with nothing anyway."""
    ids = memo.content_ids
    one, pauli, one_id, pauli_id = ((gate, other, gid, oid) if gate.num_qubits == 1
                                    else (other, gate, oid, gid))
    if (one.kind in _ONE_QUBIT and pauli.kind in _CONTROLLED_PAULI
            and one.qubits[0] in pauli.qubits):
        role = -1 if pauli.kind is GateKind.CZ else pauli.qubits.index(one.qubits[0])
        key = (ids[one_id], ids[pauli_id], role)
    else:
        qubits = gate.qubits + other.qubits
        wires = sorted(set(qubits))
        key = (ids[gid], ids[oid], tuple(map(wires.index, qubits)))
    commutes = memo.content_commute.get(key)
    if commutes is None:
        commutes = memo.content_commute[key] = gates_commute(gate, other)
    return commutes


def commutation_analysis(dag: CircuitDag, memo: CompileMemo) -> None:
    """Group contiguous commuting gates per wire into ``dag.commute_set``,
    the (node, wire) -> set_id map.  Non-unitary nodes form singleton
    sets.  Membership checks look at no more than the first SEARCH_CAP
    members of the open set.
    """
    known = memo.commute
    gates = dag.gates
    ids = [memo.gate_id(gate) for gate in gates]
    unitary = [gate.is_unitary_gate() for gate in gates]
    commute_set = dag.commute_set = {}
    next_id = 0
    for wire, nodes in enumerate(dag.wires):
        current: list[tuple[int, Gate]] = []  # open set: (gate id, gate)
        current_id = None
        for nid in nodes:
            gate, gid = gates[nid], ids[nid]
            joins = bool(current) and unitary[nid]
            if joins:
                for oid, other in current[:SEARCH_CAP]:
                    commutes = known.get((gid, oid))
                    if commutes is None:
                        commutes = known[(gid, oid)] = _decide(memo, gid, gate, oid, other)
                    if not commutes:
                        joins = False
                        break
            if not joins:
                current_id = next_id
                next_id += 1
                current = []
            current.append((gid, gate))
            commute_set[(nid, wire)] = current_id
            if not unitary[nid]:
                # measure/barrier: close the set so nothing commutes across
                current = []
                current_id = None


def _commutes(memo: CompileMemo, gate: Gate, other: Gate) -> bool:
    """``gates_commute(gate, other)``, looked up by the gates' ids."""
    gid, oid = memo.gate_id(gate), memo.gate_id(other)
    commutes = memo.commute.get((gid, oid))
    if commutes is None:
        commutes = memo.commute[(gid, oid)] = _decide(memo, gid, gate, oid, other)
    return commutes


def _between_ok(dag: CircuitDag, wire_nodes: list[int], i: int, j: int,
                gate: Gate, memo: CompileMemo) -> bool:
    """Everything strictly between positions i and j on the wire commutes
    with `gate` (guards sets that grew past the membership search cap)."""
    return all(_commutes(memo, gate, dag.gates[nid]) for nid in wire_nodes[i + 1 : j])


def commutative_cancellation(dag: CircuitDag, memo: CompileMemo) -> CircuitDag:
    """Remove pairs of identical self-inverse gates that can be brought
    together by commutation; repeats until a fixed point."""
    for _ in range(16):
        commutation_analysis(dag, memo)
        removed = _cancel_once(dag, memo)
        if not removed:
            return dag
        dag = dag.with_gates(g for nid, g in enumerate(dag.gates) if nid not in removed)
    return dag


def _cancel_once(dag: CircuitDag, memo: CompileMemo) -> set[int]:
    removed: set[int] = set()
    for wire, nodes in enumerate(dag.wires):
        by_key: dict[tuple, list[int]] = {}
        for nid in nodes:
            gate = dag.gates[nid]
            if gate.kind not in SELF_INVERSE_KINDS:
                continue
            if gate.num_qubits == 2 and wire != gate.qubits[0]:
                continue  # handle each 2q gate from its first wire only
            by_key.setdefault((gate.kind, gate.qubits), []).append(nid)
        for (kind, qubits), cands in by_key.items():
            pending: int | None = None
            for nid in cands:
                if nid in removed:
                    continue
                if pending is None:
                    pending = nid
                    continue
                if self_inverse_pair_cancels(dag, pending, nid, memo):
                    removed.add(pending)
                    removed.add(nid)
                    pending = None
                else:
                    pending = nid
    return removed


def self_inverse_pair_cancels(dag, nid_a, nid_b, memo: CompileMemo) -> bool:
    gate = dag.gates[nid_a]
    for wire in gate.qubits:
        sa = dag.commute_set.get((nid_a, wire))
        sb = dag.commute_set.get((nid_b, wire))
        if sa is None or sa != sb:
            return False
        i, j = dag.wire_pos[(nid_a, wire)], dag.wire_pos[(nid_b, wire)]
        if not _between_ok(dag, dag.wires[wire], min(i, j), max(i, j), gate, memo):
            return False
    return True


# -- router-facing predictors -------------------------------------------------


@dataclass(frozen=True)
class DecompositionLabel:
    """How to expand an inserted SWAP: which physical qubit controls the
    first (and last) CNOT of the ladder, and which optimization asked."""

    control_phys: int | None
    rationale: str  # "commute1" | "commute2" | "none"

    @staticmethod
    def none() -> "DecompositionLabel":
        return DecompositionLabel(None, "none")


def last_non_1q(hist) -> int:
    """Index of the newest entry that is not a unitary 1q gate (-1 if none);
    the entries after it are the 1q gates just before the frontier."""
    idx = len(hist) - 1
    while idx >= 0 and hist[idx].gate.num_qubits == 1 and hist[idx].gate.is_unitary_gate():
        idx -= 1
    return idx


def predict_ccommute1(dag, hist_a, hist_b, la, lb, pa, pb):
    """CNOT-vs-SWAP cancellation predictor.

    hist_a/hist_b are the resolved entries on physical wires pa/pb (oldest
    first); entries expose .gate (physical), .node_id (None for inserted
    SWAPs) and .is_swap.  Returns (0, None) or (2, label).
    """
    run_a = _set_run(dag, hist_a, la)
    if not run_a:
        return 0, None
    run_b = _set_run(dag, hist_b, lb)
    if not run_b:
        return 0, None
    common = set(run_a) & set(run_b)
    for nid in run_a:
        if nid not in common:
            continue
        gate = dag.gates[nid]
        if gate.kind is GateKind.CX and set(gate.qubits) == {la, lb}:
            control = pa if gate.qubits[0] == la else pb
            return 2, DecompositionLabel(control, "commute1")
    return 0, None


def _set_run(dag, hist, logical_wire):
    """Node ids of the trailing commute-set run on one wire, skipping the 1q
    gates just before the frontier.  Stops at inserted SWAPs and at anything
    without a set annotation on this wire."""
    idx = last_non_1q(hist)
    if idx < 0:
        return []
    anchor = hist[idx]
    if anchor.node_id is None:
        return []
    set_id = dag.commute_set.get((anchor.node_id, logical_wire))
    if set_id is None:
        return []
    run = []
    scanned = 0
    while idx >= 0 and scanned < SEARCH_CAP:
        entry = hist[idx]
        if entry.node_id is None:
            break
        if dag.commute_set.get((entry.node_id, logical_wire)) != set_id:
            break
        run.append(entry.node_id)
        scanned += 1
        idx -= 1
    return run


def predict_ccommute2(dag, hist_a, hist_b, pa, pb):
    """SWAP-sandwich predictor (a commute set boxed by two SWAPs on the same
    physical pair).  Returns (0, None, None) or (2, label, prev_swap_entry);
    the previous SWAP must be relabeled to match.  Decisions come from the
    compile memo of the router's DAG (``dag.memo``)."""
    mid_a, prev_a = _until_prev_swap(hist_a, pa, pb)
    if prev_a is None:
        return 0, None, None
    mid_b, prev_b = _until_prev_swap(hist_b, pa, pb)
    if prev_b is not prev_a:
        return 0, None, None
    if not mid_a and not mid_b:
        # nothing is sandwiched: this SWAP would only undo the previous one
        return 0, None, None
    middles = []
    seen = set()
    for entry in mid_a + mid_b:
        if id(entry) not in seen:
            seen.add(id(entry))
            middles.append(entry)
    memo = dag.memo
    for control, target in ((pa, pb), (pb, pa)):
        inner_cx = Gate(GateKind.CX, (control, target))
        if all(_commutes(memo, inner_cx, e.gate) for e in middles) and _pairwise(
            mid_a, memo
        ) and _pairwise(mid_b, memo):
            return 2, DecompositionLabel(control, "commute2"), prev_a
    return 0, None, None


def _until_prev_swap(hist, pa, pb):
    """Entries (trailing 1q excluded) back to the previous inserted SWAP on
    exactly this pair; (middles, swap_entry) or (middles, None)."""
    idx = last_non_1q(hist)
    middles = []
    scanned = 0
    while idx >= 0 and scanned < SEARCH_CAP:
        entry = hist[idx]
        if entry.is_swap:
            if set(entry.gate.qubits) == {pa, pb}:
                return middles, entry
            return middles, None
        middles.append(entry)
        scanned += 1
        idx -= 1
    return middles, None


def _pairwise(entries, memo: CompileMemo) -> bool:
    for i in range(len(entries)):
        for j in range(i + 1, len(entries)):
            if not _commutes(memo, entries[i].gate, entries[j].gate):
                return False
    return True
