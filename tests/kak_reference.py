"""Per-matrix reference for two-qubit classification and re-synthesis: one
4x4 unitary at a time, as ``synthesis`` computed them before it took
stacks.  ``synthesis.min_cnot_count`` and ``synthesis.kak_synthesize`` must
give the same counts and emit the same gates, params bit for bit, one
matrix at a time or stacked."""

from __future__ import annotations

import math

import numpy as np

from optswap.circuit import Circuit
from optswap.gates import (
    Gate,
    GateKind,
    _FIXED_1Q,
    allclose,
    is_identity_up_to_phase,
    kron,
    rx_matrix,
    rz_matrix,
    u3_params,
)
from optswap.synthesis import (
    _CNOT01,
    _CNOT10,
    _E,
    _EDAG,
    _I2,
    _I2C,
    _I4,
    _Q_ONE_CNOT,
    _S_MAT,
    _S_SX,
    _SWAP4,
    _TOL,
    _V_ONE_CNOT,
    _W0,
    _W1,
    NotUnitary,
    SynthesisResidual,
    pair_unitary,
)


def u3_gate_from_matrix(m, qubit: int) -> Gate:
    theta, phi, lam, _ = u3_params(m)
    return Gate(GateKind.U3, (qubit,), (theta, phi, lam))


def _check_unitary(u, tol=1e-9):
    u = np.asarray(u, dtype=complex)
    if u.shape != (4, 4) or not allclose(u @ u.conj().T, _I4, tol):
        raise NotUnitary("expected a 4x4 unitary matrix")
    return u


def to_su4(u):
    det = np.linalg.det(u)
    return u * np.exp(-1j * np.angle(det) / 4)


def _gamma(u_su4):
    m = _EDAG @ u_su4 @ _E
    return m @ m.T


def min_cnot_count(u) -> int:
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


def _ry(t):
    c, s = math.cos(t / 2), math.sin(t / 2)
    return np.array([[c, -s], [s, c]], dtype=complex)


def _su2su2_factors(u):
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


def _so4_diagonalizer(sym):
    _, p = np.linalg.eigh(np.real(sym) + np.imag(sym))
    return p @ np.diag([1, 1, 1, float(np.sign(np.linalg.det(p)))])


def _prefactors(u, v):
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
    return [("1q", _W0, c), ("1q", _W1, d), ("cx", _W0, _W1), ("1q", _W1, a), ("1q", _W0, b)]


def _ops_2(u):
    u_su4 = to_su4(u)
    evs = np.linalg.eigvals(_gamma(u_su4))
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
    return [("1q", _W0, c), ("1q", _W1, d)] + interior + [("1q", _W0, a), ("1q", _W1, b)]


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
    for mat in (_CNOT10, kron(rz_matrix(delta), _ry(beta)), _CNOT01,
                kron(_I2, _ry(alpha)), _CNOT10, _SWAP4):
        v = mat @ v
    a, b, c, d = _prefactors(swap_u, v)
    return [("1q", _W0, c), ("1q", _W1, d)] + interior + [("1q", _W1, a), ("1q", _W0, b)]


def _ops_swap_times_local(u):
    rest = u @ _SWAP4
    a, b = _su2su2_factors(to_su4(rest))
    return [("cx", _W0, _W1), ("cx", _W1, _W0), ("cx", _W0, _W1),
            ("1q", _W0, a), ("1q", _W1, b)]


def _ops_to_circuit(ops, pair, num_qubits):
    qubit_of = {_W0: pair[1], _W1: pair[0]}
    gates = []
    pending = {}

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


_IDENTITY_FACTORS = _su2su2_factors(np.eye(4, dtype=complex).conj().T)


def _random_local(rng):
    v = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    q, r = np.linalg.qr(v)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def _phase_distance(a, b):
    inner = np.trace(b.conj().T @ a)
    if abs(inner) < 1e-12:
        return float(np.max(np.abs(a - b)))
    return float(np.max(np.abs(a * (abs(inner) / inner) - b)))


def kak_synthesize(u, pair, num_qubits=None, count=None, attempts=None) -> Circuit:
    """``attempts``, if a list, gets the index of the attempt that
    succeeded (0 for the undressed one)."""
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
            (la_i, lb_i), (ra_i, rb_i) = _IDENTITY_FACTORS, _IDENTITY_FACTORS
        else:
            la, lb = _random_local(rng), _random_local(rng)
            ra, rb = _random_local(rng), _random_local(rng)
            left, right = kron(la, lb), kron(ra, rb)
            target = left @ u @ right
            la_i, lb_i = _su2su2_factors(left.conj().T)
            ra_i, rb_i = _su2su2_factors(right.conj().T)
        try:
            if count == 3 and min_cnot_count(target @ _SWAP4) == 0:
                ops = _ops_swap_times_local(target)
            else:
                ops = builders[count](target)
        except (np.linalg.LinAlgError, FloatingPointError):
            continue
        full = [("1q", _W0, ra_i), ("1q", _W1, rb_i)] + ops + [("1q", _W0, la_i), ("1q", _W1, lb_i)]
        circ = _ops_to_circuit(full, pair, num_qubits)
        rebuilt = pair_unitary(circ.gates, pair)
        if _phase_distance(rebuilt, u) < _TOL:
            if circ.count(GateKind.CX) != count:
                raise SynthesisResidual(
                    f"emitted {circ.count(GateKind.CX)} CNOTs, expected {count}"
                )
            if attempts is not None:
                attempts.append(attempt)
            return circ
    raise SynthesisResidual("could not reach reassembly tolerance")


def resynthesize_blocks(dag, memo):
    """``routing.resynthesize_blocks`` one block at a time, classifying and
    synthesizing each block's unitary with this module's functions."""
    from optswap.synthesis import block_results, block_unitary, collect_blocks

    blocks = collect_blocks(dag)
    rewritten, drop = {}, set()
    for blk in blocks:
        gates = [dag.gates[nid] for nid in blk.node_ids]
        has_foreign = any(g.num_qubits == 2 and g.kind is not GateKind.CX for g in gates)
        cx_count = sum(1 for g in gates if g.kind is GateKind.CX)
        res = block_results(memo, gates, blk.qubit_pair)
        u = None
        if res.cx is None:
            u = block_unitary(blk, dag, memo)
            res.cx = min_cnot_count(u)
        if not has_foreign and res.cx >= cx_count:
            continue
        if res.gates is None:
            if u is None:
                u = block_unitary(blk, dag, memo)
            res.gates = kak_synthesize(u, (0, 1), 2, res.cx).gates
        anchor = next(nid for nid in blk.node_ids if dag.gates[nid].num_qubits == 2)
        rewritten[anchor] = [g.remapped(blk.qubit_pair) for g in res.gates]
        drop.update(nid for nid in blk.node_ids if nid != anchor)
    if not rewritten:
        return dag
    out = []
    for nid, gate in enumerate(dag.gates):
        if nid in rewritten:
            out.extend(rewritten[nid])
        elif nid not in drop:
            out.append(gate)
    return dag.with_gates(out)
