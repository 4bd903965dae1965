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

Classification and synthesis take (N, 4, 4) stacks, as ``np.linalg.det``
does; one matrix is the case N = 1.  A resynthesis pass classifies all its
new block contents in one ``min_cnot_count`` call and synthesizes them in
one ``kak_synthesize`` call, which runs each template branch (count 0, 1,
2 with a real or a complex spectrum, 3 as a SWAP times local gates or not)
once over its blocks, emits them, and checks the rebuilt unitaries.  Only
the blocks that fail that check retry their dressed attempts, alone.
Numpy's per-call overhead on a 4x4 matrix exceeds its arithmetic, so a
stack of 35 blocks costs a few times one block, not 35.

Each stacked result equals, bit for bit, what the matrix alone gives
(``tests/kak_reference.py`` holds the per-matrix code; the tests compare
counts and emitted params exactly).  That holds because every per-matrix
operation is replaced by its stacked counterpart one for one: matmul,
``det``, ``eigvals``, ``eigh``, ``angle``, ``exp``, complex ``sqrt`` and
complex division round the same per matrix either way (numpy 2.4 on an
AVX-512 host: all of 1,164 workload matrices, or 100k values).  Nothing is
fused or reordered, and a matmul with a diagonal matrix stays a matmul.
Scalar operations do not all have such a counterpart: ``abs()`` of a numpy
complex scalar differs from ``np.abs`` of an array in 35% of values (it
equals ``np.hypot`` of the parts), ``math.atan2`` from ``np.arctan2`` in
about 5%, and a numpy complex scalar's ``*`` from an array's.  Those stay
scalar operations, taken block by block.

Within one compile the block results are memoized (``memo.CompileMemo``):
a block's key is its content, per gate (kind, positions of its qubits in the
block's pair, params), which is all ``pair_unitary`` reads.  Its minimal
CNOT count, the count with a SWAP appended and its ``kak_synthesize`` gates
on the local pair (0, 1) are stored, each on first need; no block unitary
is kept.  The router's block predictor reads the counts from the entry
too, classifying what it lacks (``annotate_block_costs``).  Synthesis
seeds its own rng and reaches the pair only through the qubit labels of
the gates it emits, so remapping the stored gates onto the real pair gives
what synthesizing on that pair gives.  Likewise a 1q run's merge is stored
under its gates' exact contents (``memo.exact_content``), without its wire.
Block unitaries and run products take each gate's matrix from the memo
(``CompileMemo.matrix``), built once per content.  ``merge_1q_runs`` takes
a DAG and returns one, like every optimization pass; it returns its
argument when no run changes.

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
    CX_MATRIX,
    Gate,
    GateKind,
    SWAP_MATRIX,
    _FIXED_1Q,
    allclose,
    gate_matrix,
    is_identity_up_to_phase,
    kron,
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


_S_MAT = np.array([[1, 0], [0, 1j]], dtype=complex)


def _check_unitary(u: np.ndarray, tol: float = 1e-9):
    """u as a complex array: one 4x4 unitary or a (N, 4, 4) stack of them."""
    u = np.asarray(u, dtype=complex)
    if (u.ndim not in (2, 3) or u.shape[-2:] != (4, 4)
            or not allclose(u @ u.conj().mT, _I4, tol)):
        raise NotUnitary("expected a 4x4 unitary matrix or a stack of them")
    return u


def to_su4(u: np.ndarray) -> np.ndarray:
    det = np.linalg.det(u)
    return u * np.exp(-1j * np.angle(det) / 4)[..., None, None]


def _gamma(u_su4: np.ndarray) -> np.ndarray:
    m = _EDAG @ u_su4 @ _E
    return m @ m.mT


def min_cnot_count(u: np.ndarray):
    """Minimal CNOTs to synthesize u with arbitrary single-qubit gates.

    Classified through gamma(u): the local class has gamma = +-identity, the
    single-CNOT class has tr gamma = 0 with gamma^2 = -identity, and a real
    trace marks the two-CNOT class.  All tests are linearly sensitive to the
    distance from the class, so a nearly-but-not-exactly local gate (e.g. a
    controlled phase of 1e-5 rad) is still classified by its true cost.

    A (N, 4, 4) stack gives an int array of N counts.
    """
    u = _check_unitary(u)
    counts = _counts(u if u.ndim == 3 else u[None])
    return int(counts[0]) if u.ndim == 2 else counts


def _counts(us: np.ndarray) -> np.ndarray:
    gamma = _gamma(to_su4(us))
    tr = np.trace(gamma, axis1=-2, axis2=-1)
    sign = np.where(tr.real >= 0, 1.0, -1.0)[:, None, None]
    local = np.abs(gamma - sign * _I4).max(axis=(-2, -1)) < 1e-9
    # abs() of the trace as a Python complex rounds unlike np.abs of an array
    one = np.array([abs(t) < 4e-9 for t in tr.tolist()], dtype=bool)
    if one.any():
        g = gamma[one]
        one[one] = np.abs(g @ g + _I4).max(axis=(-2, -1)) < 1e-8
    counts = np.full(len(us), 3)
    counts[np.abs(tr.imag) < 4e-9] = 2
    counts[one] = 1
    counts[local] = 0
    return counts


# -- single-qubit tensor extraction and prefactors ---------------------------
#
# Every function from here to ``kak_synthesize`` takes (N, ...) stacks; a
# 2x2 or 4x4 constant stands for the same matrix in every block.


def _ry(t) -> np.ndarray:
    c = np.array([math.cos(x / 2) for x in t])
    s = np.array([math.sin(x / 2) for x in t])
    return np.stack([np.stack([c, -s], -1), np.stack([s, c], -1)], -2).astype(complex)


def _rz(t) -> np.ndarray:
    m = np.zeros((len(t), 2, 2), dtype=complex)
    m[:, 0, 0], m[:, 1, 1] = np.exp(-0.5j * t), np.exp(0.5j * t)
    return m


def _rx(t) -> np.ndarray:
    c = np.array([math.cos(x / 2) for x in t])
    s = np.array([math.sin(x / 2) for x in t])
    m = np.empty((len(t), 2, 2), dtype=complex)
    m[:, 0, 0] = m[:, 1, 1] = c
    m[:, 0, 1] = m[:, 1, 0] = -1j * s
    return m


def _su2su2_factors(u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Split each u = A (x) B with A, B in SU(2) (u must be such a product)."""
    c1, c2 = u[:, 0:2, 0:2], u[:, 0:2, 2:4]
    c3, c4 = u[:, 2:4, 0:2], u[:, 2:4, 2:4]
    a1 = np.sqrt((c1 @ c4.conj().mT)[:, 0, 0])
    a2 = np.sqrt(-(c2 @ c3.conj().mT)[:, 0, 0])
    near = (c1 @ c2.conj().mT)[:, 0, 0]
    # per block: numpy complex scalars multiply and take abs() with other
    # rounding than arrays do
    flip = [not abs(x * np.conj(y) - z) <= 1e-8 + 1e-5 * abs(z)  # allclose's test
            for x, y, z in zip(a1, a2, near)]
    a2 = np.where(flip, -a2, a2)
    a = np.stack([np.stack([a1, a2], -1), np.stack([-np.conj(a2), np.conj(a1)], -1)], -2)
    first = np.array([abs(x) > 1e-6 for x in a1], dtype=bool)
    b = np.empty_like(c1)
    b[first] = c1[first] / a1[first, None, None]
    b[~first] = c2[~first] / a2[~first, None, None]
    return a, b


def _so4_diagonalizer(sym: np.ndarray) -> np.ndarray:
    """Real orthogonal eigenbasis of a complex symmetric matrix, det fixed to +1."""
    _, p = np.linalg.eigh(np.real(sym) + np.imag(sym))
    fix = np.zeros(p.shape)
    fix[:, [0, 1, 2], [0, 1, 2]] = 1.0
    fix[:, 3, 3] = np.sign(np.linalg.det(p))
    return p @ fix


def _prefactors(u: np.ndarray, v: np.ndarray):
    """Find A, B, C, D in SU(2) with u = (A x B) v (C x D), both in SU(4)."""
    mu = _EDAG @ u @ _E
    mv = _EDAG @ (v if v.ndim == 3 else v[None]) @ _E
    p = _so4_diagonalizer(mu @ mu.mT)
    q = _so4_diagonalizer(mv @ mv.mT)
    g = p @ q.mT
    h = mv.conj().mT @ g.mT @ mu
    ab = _E @ g @ _EDAG
    cd = _E @ h @ _EDAG
    a, b = _su2su2_factors(ab)
    c, d = _su2su2_factors(cd)
    return a, b, c, d


# -- synthesis templates ------------------------------------------------------
#
# A template takes the stack of targets of one CNOT count and returns its
# branches: (indices into the stack, ops), with one op list per branch.


def _ops_0(u):
    a, b = _su2su2_factors(to_su4(u))
    return [(np.arange(len(u)), [("1q", _W0, a), ("1q", _W1, b)])]


def _ops_1(u):
    swap_u = np.exp(1j * math.pi / 4) * (_SWAP4 @ to_su4(u))
    mu = _EDAG @ swap_u @ _E
    p = _so4_diagonalizer(mu @ mu.mT)
    g = p @ _Q_ONE_CNOT.T
    h = _V_ONE_CNOT.conj().T @ g.mT @ mu
    ab = _E @ g @ _EDAG
    cd = _E @ h @ _EDAG
    a, b = _su2su2_factors(ab)
    c, d = _su2su2_factors(cd)
    return [(np.arange(len(u)), [
        ("1q", _W0, c),
        ("1q", _W1, d),
        ("cx", _W0, _W1),
        ("1q", _W1, a),
        ("1q", _W0, b),
    ])]


def _ops_2(u):
    u_su4 = to_su4(u)
    evs = np.linalg.eigvals(_gamma(u_su4))
    # a real spectrum is exactly {-1, -1, 1, 1} here (det 1, not local); near
    # it, the angles below still resolve, but this template would not match
    real = np.abs(evs.imag).max(axis=-1) < 1e-9
    branches = []
    idx = np.flatnonzero(real)
    if idx.size:
        interior = [
            ("cx", _W1, _W0),
            ("1q", _W0, _S_MAT),
            ("1q", _W1, _FIXED_1Q[GateKind.SX]),
            ("cx", _W1, _W0),
        ]
        branches.append((idx, interior, _CNOT10 @ _S_SX @ _CNOT10))
    idx = np.flatnonzero(~real)
    if idx.size:
        x, y = np.angle(evs[idx, 0]), np.angle(evs[idx, 1])
        y = np.where([allclose(a, -b, 1e-10) for a, b in zip(x, y)], np.angle(evs[idx, 2]), y)
        delta, phi = (x + y) / 2, (x - y) / 2
        rz, rx = _rz(delta), _rx(phi)
        interior = [("cx", _W1, _W0), ("1q", _W0, rz), ("1q", _W1, rx), ("cx", _W1, _W0)]
        branches.append((idx, interior, _CNOT10 @ kron(rz, rx) @ _CNOT10))
    out = []
    for idx, interior, v in branches:
        a, b, c, d = _prefactors(u_su4[idx], v)
        out.append((idx, [("1q", _W0, c), ("1q", _W1, d)]
                    + interior + [("1q", _W0, a), ("1q", _W1, b)]))
    return out


def _ops_3(u):
    """Three CNOTs, or the SWAP ladder where u is a SWAP times local gates."""
    out = []
    local = min_cnot_count(u @ _SWAP4) == 0
    idx = np.flatnonzero(local)
    if idx.size:
        out.append((idx, _ops_swap_times_local(u[idx])))
    idx = np.flatnonzero(~local)
    if not idx.size:
        return out
    swap_u = np.exp(1j * math.pi / 4) * (_SWAP4 @ to_su4(u[idx]))
    evs = np.linalg.eigvals(_gamma(swap_u))
    x, y, z = np.sort(np.angle(evs), axis=-1, kind="stable")[:, :3].T
    alpha, beta, delta = (x + y) / 2, (x + z) / 2, (z + y) / 2
    rz, ry_beta, ry_alpha = _rz(delta), _ry(beta), _ry(alpha)
    interior = [
        ("cx", _W1, _W0),
        ("1q", _W0, rz),
        ("1q", _W1, ry_beta),
        ("cx", _W0, _W1),
        ("1q", _W1, ry_alpha),
        ("cx", _W1, _W0),
    ]
    v = np.eye(4, dtype=complex)
    for mat in (_CNOT10, kron(rz, ry_beta), _CNOT01, kron(_I2, ry_alpha), _CNOT10, _SWAP4):
        v = mat @ v
    a, b, c, d = _prefactors(swap_u, v)
    out.append((idx, [("1q", _W0, c), ("1q", _W1, d)]
                + interior + [("1q", _W1, a), ("1q", _W0, b)]))
    return out


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


_TEMPLATES = {0: _ops_0, 1: _ops_1, 2: _ops_2, 3: _ops_3}


def _ops_to_gates(ops, pair: tuple[int, int], n: int):
    """Map internal wires to real qubits, merging consecutive 1q matrices,
    for n blocks that share `ops`.  Returns each block's gates and the
    slots its unitary is rebuilt from: ("cx", qubits) or ("u3", qubit,
    each block's params, or None where the merged matrix was dropped)."""
    qubit_of = {_W0: pair[1], _W1: pair[0]}
    rows: list[list[Gate]] = [[] for _ in range(n)]
    slots: list[tuple] = []
    pending: dict[int, np.ndarray] = {}

    def flush(q):
        m = pending.pop(q, None)
        if m is None:
            return
        m = np.broadcast_to(m, (n, 2, 2))
        # is_identity_up_to_phase's modulus test first, on the scalars it reads
        near = [i for i, z in enumerate(m[:, 0, 0]) if not abs(abs(z) - 1.0) > 1e-12]
        identity = {i for i in near if is_identity_up_to_phase(m[i], 1e-12)}
        keep = np.array([i for i in range(n) if i not in identity], dtype=int)
        params: list = [None] * n
        for i, (theta, phi, lam, _) in zip(keep, u3_params(m[keep]) if keep.size else ()):
            params[i] = (theta, phi, lam)
            rows[i].append(Gate(GateKind.U3, (q,), params[i]))
        slots.append(("u3", q, params))

    for op in ops:
        if op[0] == "1q":
            q = qubit_of[op[1]]
            pending[q] = op[2] @ pending.get(q, _I2C)
        else:
            for q in (qubit_of[op[1]], qubit_of[op[2]]):
                flush(q)
            cx = Gate(GateKind.CX, (qubit_of[op[1]], qubit_of[op[2]]))
            for row in rows:
                row.append(cx)
            slots.append(("cx", cx.qubits))
    for q in list(pending):
        flush(q)
    return rows, slots


def _u3_stack(params) -> np.ndarray:
    """``u3_matrix`` of each (theta, phi, lam)."""
    theta, phi, lam = (np.array(p) for p in zip(*params))
    c = np.array([math.cos(t / 2) for t in theta.tolist()])
    s = np.array([math.sin(t / 2) for t in theta.tolist()])
    m = np.empty((len(c), 2, 2), dtype=complex)
    m[:, 0, 0] = c
    m[:, 0, 1] = -np.exp(1j * lam) * s
    m[:, 1, 0] = np.exp(1j * phi) * s
    m[:, 1, 1] = np.exp(1j * (phi + lam)) * c
    return m


_CX_REVERSED = _SWAP4 @ CX_MATRIX @ _SWAP4


def _rebuilt(slots, pair: tuple[int, int], n: int) -> np.ndarray:
    """``pair_unitary`` of each of n blocks' gates; a block without the u3
    of a slot keeps its product as it was there."""
    a, b = pair
    u = np.eye(4, dtype=complex)
    for slot in slots:
        if slot[0] == "cx":
            u = (CX_MATRIX if slot[1] == (a, b) else _CX_REVERSED) @ u
            continue
        params = slot[2]
        dropped = [p is None for p in params]
        if all(dropped):
            continue
        m = _u3_stack([(0.0, 0.0, 0.0) if p is None else p for p in params])
        step = (kron(_I2, m) if slot[1] == a else kron(m, _I2)) @ u
        u = np.where(np.array(dropped)[:, None, None], u, step) if any(dropped) else step
    return np.broadcast_to(u, (n, 4, 4))


def _attempt(us, targets, counts, undo, pair, num_qubits) -> list:
    """One synthesis attempt per block: its count's template applied to its
    target, which is its unitary in `us` dressed by local gates; `undo`
    holds the factors of the dressings' inverses, (left, right), each a pair
    (on the internal wires 0 and 1).  Each block gets the circuit that
    rebuilds its unitary, None where the circuit does not, or _RAISED where
    a LAPACK call of its template raised."""
    (la_i, lb_i), (ra_i, rb_i) = undo
    out: list = [_RAISED] * len(us)
    for count, template in _TEMPLATES.items():
        group = np.flatnonzero(counts == count)
        if not group.size:
            continue
        try:
            branches = template(targets[group])
        except (np.linalg.LinAlgError, FloatingPointError):
            continue
        for sub, ops in branches:
            idx = group[sub]
            full = ([("1q", _W0, ra_i), ("1q", _W1, rb_i)] + ops
                    + [("1q", _W0, la_i), ("1q", _W1, lb_i)])
            rows, slots = _ops_to_gates(full, pair, len(idx))
            cx = sum(slot[0] == "cx" for slot in slots)
            close = _phase_distance(_rebuilt(slots, pair, len(idx)), us[idx]) < _TOL
            for i, row, ok in zip(idx, rows, close):
                if not ok:
                    out[i] = None
                    continue
                if cx != count:
                    raise SynthesisResidual(f"emitted {cx} CNOTs, expected {count}")
                out[i] = Circuit(num_qubits, tuple(row))
    return out


_RAISED = object()


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
_IDENTITY_FACTORS = tuple(
    f[0] for f in _su2su2_factors(np.eye(4, dtype=complex).conj().T[None])
)


def _random_local(rng) -> np.ndarray:
    v = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    q, r = np.linalg.qr(v)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def kak_synthesize(u: np.ndarray, pair: tuple[int, int], num_qubits: int | None = None,
                   count=None):
    """Circuit on `pair` equal to u up to global phase, with minimal CNOTs;
    `count`, if given, is ``min_cnot_count(u)``, already known.

    A (N, 4, 4) stack, with its counts if known, gives a list of N circuits.
    The stack goes through one undressed attempt per template branch; a
    block whose circuit misses its unitary then retries alone with random
    local dressings (folded back into the emitted gates), and a block whose
    branch raised in LAPACK retries alone from the undressed attempt.
    """
    u = _check_unitary(u)
    us = u if u.ndim == 3 else u[None]
    if num_qubits is None:
        num_qubits = max(pair) + 1
    counts = min_cnot_count(us) if count is None else np.asarray(count).reshape(len(us))
    ident = (_IDENTITY_FACTORS, _IDENTITY_FACTORS)
    out = _attempt(us, us, counts, ident, pair, num_qubits)
    for i, circ in enumerate(out):
        if not isinstance(circ, Circuit):
            out[i] = _retry(us[i], int(counts[i]), pair, num_qubits, circ is _RAISED)
    return out[0] if u.ndim == 2 else out


def _retry(u, count, pair, num_qubits, undressed: bool) -> Circuit:
    """Synthesis of one block after its stacked undressed attempt failed:
    attempt by attempt, as from the undressed one when `undressed`."""
    rng = np.random.default_rng(0x5EED)
    for attempt in range(0 if undressed else 1, 24):
        if attempt == 0:
            target, undo = u, (_IDENTITY_FACTORS, _IDENTITY_FACTORS)
        else:
            la, lb = _random_local(rng), _random_local(rng)
            ra, rb = _random_local(rng), _random_local(rng)
            left, right = kron(la, lb), kron(ra, rb)
            target = left @ u @ right
            # undo the dressing: u = left^† target right^†
            undo = tuple(tuple(f[0] for f in _su2su2_factors(m.conj().T[None]))
                         for m in (left, right))
        circ = _attempt(u[None], target[None], np.array([count]), undo, pair, num_qubits)[0]
        if isinstance(circ, Circuit):
            return circ
    raise SynthesisResidual("could not reach reassembly tolerance")


def _phase_distance(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Per block, max-abs deviation between a and b after removing one
    global phase; abs() and the phase's division per block, on numpy
    scalars."""
    inner = np.trace(b.conj().mT @ a, axis1=-2, axis2=-1)
    out = np.empty(len(inner))
    for i, z in enumerate(inner):
        size = abs(z)
        if size < 1e-12:
            out[i] = np.max(np.abs(a[i] - b[i]))
        else:
            out[i] = np.max(np.abs(a[i] * (size / z) - b[i]))
    return out


# -- block collection ---------------------------------------------------------


@dataclass
class TwoQubitBlock:
    block_id: int
    qubit_pair: tuple[int, int]
    node_ids: list[int]


def collect_blocks(dag: CircuitDag) -> list[TwoQubitBlock]:
    """Maximal uninterrupted runs on one qubit pair, indexed by block id;
    sets ``dag.blocks`` to them and ``dag.block_id`` to each member's id."""
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
    dag.blocks = blocks
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


def annotate_block_costs(dag: CircuitDag, block: TwoQubitBlock,
                         memo: CompileMemo) -> BlockResults:
    """The memo entry of a block of `dag`, with its CNOT counts with and
    without an appended SWAP filled in; the missing ones are classified in
    one stacked call."""
    res = block_results(memo, [dag.gates[nid] for nid in block.node_ids], block.qubit_pair)
    if res.cx is None or res.cx_with_swap is None:
        u = block_unitary(block, dag, memo)
        missing = [name for name in ("cx", "cx_with_swap") if getattr(res, name) is None]
        stack = np.stack([u if name == "cx" else _SWAP4 @ u for name in missing])
        for name, count in zip(missing, min_cnot_count(stack).tolist()):
            setattr(res, name, count)
    return res


def predict_c2q(dag: CircuitDag, memo: CompileMemo, pred_a: int | None,
                pred_b: int | None) -> int:
    """CNOT reduction if the candidate SWAP joins its predecessors' block.

    pred_a/pred_b are the DAG nodes immediately before the insertion point on
    the SWAP's two wires (None for inserted SWAPs or wire starts).  Non-zero
    only when both are in the same block of ``dag.blocks``, whose counts
    come from the compile memo.
    """
    if pred_a is None or pred_b is None:
        return 0
    bid = dag.block_id.get(pred_a)
    if bid is None or dag.block_id.get(pred_b) != bid:
        return 0
    res = annotate_block_costs(dag, dag.blocks[bid], memo)
    return max(0, min(3, res.cx + 3 - res.cx_with_swap))


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
