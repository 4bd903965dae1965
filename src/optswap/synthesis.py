"""Two-qubit block collection and SU(4) re-synthesis.

A block's 4x4 unitary lives in the "pair frame" of its qubits (a, b): local
index = bit(a) + 2*bit(b).  Re-synthesis follows the standard magic-basis
construction: the minimal CNOT count comes from trace/spectrum conditions on
gamma(u) = u u^T with u expressed in the magic basis, and the emitted circuit
uses the matching 0/1/2/3-CNOT template.  Internally the math runs in a frame
whose wire 0 is the most significant bit; `_W0`/`_W1` map back to (b, a).

Degenerate spectra can break the simultaneous diagonalization used to extract
the single-qubit prefactors, so synthesis retries with random local dressings
(folded back into the emitted gates) before giving up.

Within one compile the block results are memoized (``memo.CompileMemo``):
a block's key is its content, per gate (kind, positions of its qubits in the
block's pair, params), which is all ``pair_unitary`` reads.  Its minimal
CNOT count, the count with a SWAP appended and its ``kak_synthesize`` gates
on the local pair (0, 1) are stored, each on first need; no block unitary
is kept.  Synthesis seeds its own rng and reaches the pair only through the
qubit labels of the gates it emits, so remapping the stored gates onto the
real pair gives what synthesizing on that pair gives.  Likewise a 1q run's
merge is stored under its gates' exact contents (``memo.exact_content``),
without its wire.  Block unitaries and run products take each gate's
matrix from the memo (``CompileMemo.matrix``), built once per content.
``merge_1q_runs`` takes a DAG and returns one, like every optimization pass;
it returns its argument when no run changes.

A block whose one two-qubit gate is a CX, CY or CZ needs no numerics for
its counts: with any 1q gates around it, it is locally equivalent to one
CNOT (count 1), and with a SWAP appended to a DCNOT (count 2), the class
split of Shende, Markov and Bullock (2004).  Its gamma clears every
``min_cnot_count`` cut by orders of magnitude (trace and gamma^2 + 1 within
1e-13 of 0 against cuts of 4e-9 and 1e-8, and at least 1 from +-identity),
so the closed form and the numerics agree.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .circuit import Circuit
from .dag import CircuitDag
from .gates import (
    Gate,
    GateKind,
    SWAP_MATRIX,
    _FIXED_1Q,
    allclose,
    gate_matrix,
    is_identity_up_to_phase,
    kron,
    rx_matrix,
    rz_matrix,
    u3_gate_from_matrix,
    u3_params,
)
from .memo import BlockResults, CompileMemo, exact_content

_TOL = 1e-8


class SynthesisError(ValueError):
    pass


class NotUnitary(SynthesisError):
    pass


class SynthesisResidual(SynthesisError):
    """Reassembly mismatch above tolerance: internal bug signal."""


# Magic (Bell) basis and fixed two-qubit matrices in the internal frame
# (wire 0 = most significant bit).
_E = np.array(
    [[1, 1j, 0, 0], [0, 0, 1j, 1], [0, 0, 1j, -1], [1, -1j, 0, 0]], dtype=complex
) / math.sqrt(2)
_EDAG = _E.conj().T

_CNOT01 = np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex)
_CNOT10 = np.array([[1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0], [0, 1, 0, 0]], dtype=complex)
_SWAP4 = SWAP_MATRIX.astype(complex)

_S_SX = np.array(
    [
        [0.5 + 0.5j, 0.5 - 0.5j, 0, 0],
        [0.5 - 0.5j, 0.5 + 0.5j, 0, 0],
        [0, 0, -0.5 + 0.5j, 0.5 + 0.5j],
        [0, 0, 0.5 + 0.5j, -0.5 + 0.5j],
    ],
    dtype=complex,
)

# Constants for the 1-CNOT case: v = magic-basis image of SWAP*CNOT01 and an
# SO(4) diagonalizer of v v^T.
_V_ONE_CNOT = np.array(
    [
        [0.5, 0.5j, 0.5j, -0.5],
        [-0.5j, 0.5, -0.5, -0.5j],
        [-0.5j, -0.5, 0.5, -0.5j],
        [0.5, -0.5j, -0.5j, -0.5],
    ],
    dtype=complex,
)
_Q_ONE_CNOT = np.array(
    [[-1, 0, -1, 0], [0, 1, 0, 1], [0, 1, 0, -1], [1, 0, -1, 0]], dtype=complex
) / math.sqrt(2)

_I2, _I4 = np.eye(2), np.eye(4)
_I2C = np.eye(2, dtype=complex)

_W0, _W1 = 0, 1  # internal wire names; _W0 maps to the pair's second qubit


def _ry(t):
    c, s = math.cos(t / 2), math.sin(t / 2)
    return np.array([[c, -s], [s, c]], dtype=complex)


_S_MAT = np.array([[1, 0], [0, 1j]], dtype=complex)


def _check_unitary(u: np.ndarray, tol: float = 1e-9):
    u = np.asarray(u, dtype=complex)
    if u.shape != (4, 4) or not allclose(u @ u.conj().T, _I4, tol):
        raise NotUnitary("expected a 4x4 unitary matrix")
    return u


def to_su4(u: np.ndarray) -> np.ndarray:
    det = np.linalg.det(u)
    return u * np.exp(-1j * np.angle(det) / 4)


def _gamma(u_su4: np.ndarray) -> np.ndarray:
    m = _EDAG @ u_su4 @ _E
    return m @ m.T


def min_cnot_count(u: np.ndarray) -> int:
    """Minimal CNOTs to synthesize u with arbitrary single-qubit gates.

    Classified through gamma(u): the local class has gamma = +-identity, the
    single-CNOT class has tr gamma = 0 with gamma^2 = -identity, and a real
    trace marks the two-CNOT class.  All tests are linearly sensitive to the
    distance from the class, so a nearly-but-not-exactly local gate (e.g. a
    controlled phase of 1e-5 rad) is still classified by its true cost.
    """
    u = _check_unitary(u)
    gamma = _gamma(to_su4(u))
    tr = complex(np.trace(gamma))
    eye = np.eye(4)
    sign = 1.0 if tr.real >= 0 else -1.0
    if np.max(np.abs(gamma - sign * eye)) < 1e-9:
        return 0
    if abs(tr) < 4e-9 and np.max(np.abs(gamma @ gamma + eye)) < 1e-8:
        return 1
    if abs(tr.imag) < 4e-9:
        return 2
    return 3


# -- single-qubit tensor extraction and prefactors ---------------------------


def _su2su2_factors(u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Split u = A (x) B with A, B in SU(2) (u must be such a product)."""
    c1, c2 = u[0:2, 0:2], u[0:2, 2:4]
    c3, c4 = u[2:4, 0:2], u[2:4, 2:4]
    a1 = np.sqrt(complex((c1 @ c4.conj().T)[0, 0]))
    a2 = np.sqrt(complex(-(c2 @ c3.conj().T)[0, 0]))
    if not allclose(a1 * np.conj(a2), (c1 @ c2.conj().T)[0, 0], 1e-8):
        a2 = -a2
    a = np.array([[a1, a2], [-np.conj(a2), np.conj(a1)]], dtype=complex)
    if abs(a[0, 0]) > 1e-6:
        b = c1 / a[0, 0]
    else:
        b = c2 / a[0, 1]
    return a, b


def _so4_diagonalizer(sym: np.ndarray) -> np.ndarray:
    """Real orthogonal eigenbasis of a complex symmetric matrix, det fixed to +1."""
    _, p = np.linalg.eigh(np.real(sym) + np.imag(sym))
    return p @ np.diag([1, 1, 1, float(np.sign(np.linalg.det(p)))])


def _prefactors(u: np.ndarray, v: np.ndarray):
    """Find A, B, C, D in SU(2) with u = (A x B) v (C x D), both in SU(4)."""
    mu = _EDAG @ u @ _E
    mv = _EDAG @ v @ _E
    p = _so4_diagonalizer(mu @ mu.T)
    q = _so4_diagonalizer(mv @ mv.T)
    g = p @ q.T
    h = mv.conj().T @ g.T @ mu
    ab = _E @ g @ _EDAG
    cd = _E @ h @ _EDAG
    a, b = _su2su2_factors(ab)
    c, d = _su2su2_factors(cd)
    return a, b, c, d


# -- synthesis templates ------------------------------------------------------


def _ops_0(u):
    a, b = _su2su2_factors(to_su4(u))
    return [("1q", _W0, a), ("1q", _W1, b)]


def _ops_1(u):
    swap_u = np.exp(1j * math.pi / 4) * (_SWAP4 @ to_su4(u))
    mu = _EDAG @ swap_u @ _E
    p = _so4_diagonalizer(mu @ mu.T)
    g = p @ _Q_ONE_CNOT.T
    h = _V_ONE_CNOT.conj().T @ g.T @ mu
    ab = _E @ g @ _EDAG
    cd = _E @ h @ _EDAG
    a, b = _su2su2_factors(ab)
    c, d = _su2su2_factors(cd)
    return [
        ("1q", _W0, c),
        ("1q", _W1, d),
        ("cx", _W0, _W1),
        ("1q", _W1, a),
        ("1q", _W0, b),
    ]


def _ops_2(u):
    u_su4 = to_su4(u)
    evs = np.linalg.eigvals(_gamma(u_su4))
    # a real spectrum is exactly {-1, -1, 1, 1} here (det 1, not local); near
    # it, the angles below still resolve, but this template would not match
    if np.max(np.abs(np.imag(evs))) < 1e-9:
        interior = [
            ("cx", _W1, _W0),
            ("1q", _W0, _S_MAT),
            ("1q", _W1, _FIXED_1Q[GateKind.SX]),
            ("cx", _W1, _W0),
        ]
        inner = _S_SX
    else:
        x, y = np.angle(evs[0]), np.angle(evs[1])
        if allclose(x, -y, 1e-10):
            y = np.angle(evs[2])
        delta, phi = (x + y) / 2, (x - y) / 2
        interior = [
            ("cx", _W1, _W0),
            ("1q", _W0, rz_matrix(delta)),
            ("1q", _W1, rx_matrix(phi)),
            ("cx", _W1, _W0),
        ]
        inner = kron(rz_matrix(delta), rx_matrix(phi))
    v = _CNOT10 @ inner @ _CNOT10
    a, b, c, d = _prefactors(u_su4, v)
    return (
        [("1q", _W0, c), ("1q", _W1, d)]
        + interior
        + [("1q", _W0, a), ("1q", _W1, b)]
    )


def _ops_3(u):
    swap_u = np.exp(1j * math.pi / 4) * (_SWAP4 @ to_su4(u))
    evs = np.linalg.eigvals(_gamma(swap_u))
    x, y, z = sorted(np.angle(ev) for ev in evs)[:3]
    alpha, beta, delta = (x + y) / 2, (x + z) / 2, (z + y) / 2
    interior = [
        ("cx", _W1, _W0),
        ("1q", _W0, rz_matrix(delta)),
        ("1q", _W1, _ry(beta)),
        ("cx", _W0, _W1),
        ("1q", _W1, _ry(alpha)),
        ("cx", _W1, _W0),
    ]
    v = np.eye(4, dtype=complex)
    for mat in (
        _CNOT10,
        kron(rz_matrix(delta), _ry(beta)),
        _CNOT01,
        kron(_I2, _ry(alpha)),
        _CNOT10,
        _SWAP4,
    ):
        v = mat @ v
    a, b, c, d = _prefactors(swap_u, v)
    return (
        [("1q", _W0, c), ("1q", _W1, d)]
        + interior
        + [("1q", _W1, a), ("1q", _W0, b)]
    )


def _ops_swap_times_local(u):
    """u is locally equivalent to SWAP: emit the ladder plus local cleanup."""
    rest = u @ _SWAP4  # u = rest @ SWAP with rest a tensor product
    a, b = _su2su2_factors(to_su4(rest))
    return [
        ("cx", _W0, _W1),
        ("cx", _W1, _W0),
        ("cx", _W0, _W1),
        ("1q", _W0, a),
        ("1q", _W1, b),
    ]


def _ops_to_circuit(ops, pair: tuple[int, int], num_qubits: int) -> Circuit:
    """Map internal wires to real qubits, merging consecutive 1q matrices."""
    qubit_of = {_W0: pair[1], _W1: pair[0]}
    gates: list[Gate] = []
    pending: dict[int, np.ndarray] = {}

    def flush(q):
        m = pending.pop(q, None)
        if m is not None and not is_identity_up_to_phase(m, 1e-12):
            gates.append(u3_gate_from_matrix(m, q))

    for op in ops:
        if op[0] == "1q":
            q = qubit_of[op[1]]
            pending[q] = op[2] @ pending.get(q, _I2C)
        else:
            for q in (qubit_of[op[1]], qubit_of[op[2]]):
                flush(q)
            gates.append(Gate(GateKind.CX, (qubit_of[op[1]], qubit_of[op[2]])))
    for q in list(pending):
        flush(q)
    return Circuit(num_qubits, tuple(gates))


def pair_unitary(gates, pair: tuple[int, int], matrix=gate_matrix) -> np.ndarray:
    """Product of gate matrices in the pair frame of (a, b); ``matrix(g)``
    gives a gate's matrix (``CompileMemo.matrix`` within a compile)."""
    a, b = pair
    u = np.eye(4, dtype=complex)
    for g in gates:
        m = matrix(g)
        if g.num_qubits == 1:
            m4 = kron(_I2, m) if g.qubits[0] == a else kron(m, _I2)
        elif g.qubits == (a, b):
            m4 = m
        elif g.qubits == (b, a):
            m4 = _SWAP4 @ m @ _SWAP4
        else:
            raise SynthesisError(f"gate {g.kind.value}{g.qubits} outside pair {pair}")
        u = m4 @ u
    return u


# the undressed attempt's factors, split from the identity exactly as the
# dressed attempts split left^† (conj() gives its zeros their signs)
_IDENTITY_FACTORS = _su2su2_factors(np.eye(4, dtype=complex).conj().T)


def _random_local(rng) -> np.ndarray:
    v = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    q, r = np.linalg.qr(v)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def kak_synthesize(u: np.ndarray, pair: tuple[int, int], num_qubits: int | None = None,
                   count: int | None = None) -> Circuit:
    """Circuit on `pair` equal to u up to global phase, with minimal CNOTs;
    `count`, if given, is ``min_cnot_count(u)``, already known."""
    u = _check_unitary(u)
    if num_qubits is None:
        num_qubits = max(pair) + 1
    if count is None:
        count = min_cnot_count(u)
    builders = {0: _ops_0, 1: _ops_1, 2: _ops_2, 3: _ops_3}
    rng = np.random.default_rng(0x5EED)
    for attempt in range(24):
        if attempt == 0:
            target = u
            # undressed: the factors of the identity
            (la_i, lb_i), (ra_i, rb_i) = _IDENTITY_FACTORS, _IDENTITY_FACTORS
        else:
            la, lb = _random_local(rng), _random_local(rng)
            ra, rb = _random_local(rng), _random_local(rng)
            left, right = kron(la, lb), kron(ra, rb)
            target = left @ u @ right
            # undo the dressing: u = left^† target right^†
            la_i, lb_i = _su2su2_factors(left.conj().T)
            ra_i, rb_i = _su2su2_factors(right.conj().T)
        try:
            if count == 3 and min_cnot_count(target @ _SWAP4) == 0:
                ops = _ops_swap_times_local(target)
            else:
                ops = builders[count](target)
        except (np.linalg.LinAlgError, FloatingPointError):
            continue
        full = (
            [("1q", _W0, ra_i), ("1q", _W1, rb_i)]
            + ops
            + [("1q", _W0, la_i), ("1q", _W1, lb_i)]
        )
        circ = _ops_to_circuit(full, pair, num_qubits)
        rebuilt = pair_unitary(circ.gates, pair)
        if _phase_distance(rebuilt, u) < _TOL:
            if circ.count(GateKind.CX) != count:
                raise SynthesisResidual(
                    f"emitted {circ.count(GateKind.CX)} CNOTs, expected {count}"
                )
            return circ
    raise SynthesisResidual("could not reach reassembly tolerance")


def _phase_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Max-abs deviation between a and b after removing one global phase."""
    inner = np.trace(b.conj().T @ a)
    if abs(inner) < 1e-12:
        return float(np.max(np.abs(a - b)))
    return float(np.max(np.abs(a * (abs(inner) / inner) - b)))


# -- block collection ---------------------------------------------------------


@dataclass
class TwoQubitBlock:
    block_id: int
    qubit_pair: tuple[int, int]
    node_ids: list[int]


def collect_blocks(dag: CircuitDag) -> list[TwoQubitBlock]:
    """Maximal uninterrupted runs on one qubit pair; annotates dag.block_id."""
    blocks: list[TwoQubitBlock] = []
    open_block: dict[int, TwoQubitBlock | None] = {}
    pending: dict[int, list[int]] = {}

    def close(q):
        open_block[q] = None

    for nid, gate in enumerate(dag.gates):
        if not gate.is_unitary_gate():
            for q in gate.qubits:
                close(q)
                pending.pop(q, None)
            continue
        if gate.num_qubits == 1:
            q = gate.qubits[0]
            blk = open_block.get(q)
            if blk is not None:
                blk.node_ids.append(nid)
            else:
                pending.setdefault(q, []).append(nid)
            continue
        a, b = gate.qubits
        blk_a, blk_b = open_block.get(a), open_block.get(b)
        if blk_a is not None and blk_a is blk_b:
            blk_a.node_ids.append(nid)
            continue
        close(a)
        close(b)
        members = sorted(pending.pop(a, []) + pending.pop(b, []))
        blk = TwoQubitBlock(len(blocks), (a, b), members + [nid])
        blocks.append(blk)
        open_block[a] = open_block[b] = blk

    dag.block_id = {nid: blk.block_id for blk in blocks for nid in blk.node_ids}
    return blocks


def block_unitary(block: TwoQubitBlock, dag: CircuitDag, memo: CompileMemo) -> np.ndarray:
    return pair_unitary([dag.gates[nid] for nid in block.node_ids], block.qubit_pair,
                        memo.matrix)


# two-qubit kinds locally equivalent to one CNOT
_ONE_CNOT_KINDS = frozenset({GateKind.CX, GateKind.CY, GateKind.CZ})


def block_results(memo: CompileMemo, gates, pair: tuple[int, int]) -> BlockResults:
    """The memo entry for a block's content: per gate, its kind, the
    positions of its qubits in `pair` and its params.  A new entry for a
    block whose one two-qubit gate is a CX, CY or CZ gets its CNOT counts
    from that structure: 1, and 2 with a SWAP appended."""
    a = pair[0]
    key = tuple(
        (g.kind, tuple(0 if q == a else 1 for q in g.qubits), g.params) for g in gates
    )
    found = memo.blocks.get(key)
    if found is None:
        found = memo.blocks[key] = BlockResults()
        two = [g.kind for g in gates if g.num_qubits == 2]
        if len(two) == 1 and two[0] in _ONE_CNOT_KINDS:
            found.cx, found.cx_with_swap = 1, 2
    return found


def annotate_block_costs(dag: CircuitDag, blocks: list[TwoQubitBlock],
                         memo: CompileMemo) -> None:
    """Write each given block's CNOT counts with and without an appended
    SWAP into ``dag.block_cx`` and ``dag.block_cx_with_swap``, so the
    router's block predictor is a dictionary lookup."""
    for blk in blocks:
        gates = [dag.gates[nid] for nid in blk.node_ids]
        res = block_results(memo, gates, blk.qubit_pair)
        if res.cx is None or res.cx_with_swap is None:
            u = block_unitary(blk, dag, memo)
            if res.cx is None:
                res.cx = min_cnot_count(u)
            if res.cx_with_swap is None:
                res.cx_with_swap = min_cnot_count(_SWAP4 @ u)
        dag.block_cx[blk.block_id] = res.cx
        dag.block_cx_with_swap[blk.block_id] = res.cx_with_swap


def predict_c2q(dag: CircuitDag, pred_a: int | None, pred_b: int | None) -> int:
    """CNOT reduction if the candidate SWAP joins its predecessors' block.

    pred_a/pred_b are the DAG nodes immediately before the insertion point on
    the SWAP's two wires (None for inserted SWAPs or wire starts).  Non-zero
    only when both carry the same block annotation.
    """
    if pred_a is None or pred_b is None:
        return 0
    bid = dag.block_id.get(pred_a)
    if bid is None or dag.block_id.get(pred_b) != bid:
        return 0
    c_before = dag.block_cx[bid]
    c_after = dag.block_cx_with_swap[bid]
    return max(0, min(3, c_before + 3 - c_after))


# -- single-qubit run merging -------------------------------------------------


def merge_1q_runs(dag: CircuitDag, memo: CompileMemo) -> CircuitDag:
    """Fuse maximal runs of adjacent 1q gates on each wire into one u3.

    Runs of length >= 2 become a single u3 (dropped entirely when the product
    is the identity up to phase); lone identity-like gates are dropped too.
    Each distinct run is merged once per compile (``memo.merges``).
    """
    merges = memo.merges
    consumed: set[int] = set()
    replacement: dict[int, Gate | None] = {}
    for q, wire in enumerate(dag.wires):
        run: list[int] = []
        for nid in wire + [None]:
            gate = dag.gates[nid] if nid is not None else None
            if gate is not None and gate.num_qubits == 1 and gate.is_unitary_gate():
                run.append(nid)
                continue
            if not run:
                continue
            gates = [dag.gates[n] for n in run]
            key = tuple(map(exact_content, gates))
            merged = merges.get(key, _UNSEEN)
            if merged is _UNSEEN:
                merged = merges[key] = _merge_run(gates, memo)
            if merged is None:
                replacement[run[0]] = None
            elif merged is not True:
                replacement[run[0]] = Gate(GateKind.U3, (q,), merged)
            consumed.update(run[1:])
            run = []
    if not consumed and not replacement:
        return dag
    kept = (replacement.get(nid, gate) for nid, gate in enumerate(dag.gates)
            if nid not in consumed)
    return dag.with_gates(gate for gate in kept if gate is not None)


_UNSEEN = object()


def _merge_run(gates: list[Gate], memo: CompileMemo) -> tuple[float, float, float] | bool | None:
    """What replaces a run of adjacent 1q gates on one wire (oldest first):
    None drops it, True keeps a lone gate as it is, and otherwise the run
    becomes one u3 with the returned params."""
    if len(gates) == 1:
        return None if is_identity_up_to_phase(memo.matrix(gates[0]), 1e-10) else True
    m = np.eye(2, dtype=complex)
    for gate in gates:
        m = memo.matrix(gate) @ m
    if is_identity_up_to_phase(m, 1e-10):
        return None
    return u3_params(m)[:3]
