"""Gate set and dense matrices.

Single convention used everywhere: statevectors are little-endian (qubit 0 is
the least significant bit).  A two-qubit matrix on qubits (a, b) acts on the
local index ``bit(a) + 2*bit(b)``, i.e. the first listed qubit is the local
LSB.  This matches the usual little-endian circuit convention, so
``CX = [[1,0,0,0],[0,0,0,1],[0,0,1,0],[0,1,0,0]]`` has its control on the
first qubit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np


class GateKind(Enum):
    ID = "id"
    X = "x"
    SX = "sx"
    RZ = "rz"
    H = "h"
    Y = "y"
    Z = "z"
    U3 = "u3"
    CX = "cx"
    CY = "cy"
    CZ = "cz"
    CRX = "crx"
    SWAP = "swap"
    MEASURE = "measure"
    BARRIER = "barrier"

    # Enum hashes by name in Python; members are singletons, so hashing by
    # identity keeps equality and runs in C (kinds key many memo lookups)
    __hash__ = object.__hash__


TWO_QUBIT_KINDS = frozenset(
    {GateKind.CX, GateKind.CY, GateKind.CZ, GateKind.CRX, GateKind.SWAP}
)
SELF_INVERSE_KINDS = frozenset(
    {GateKind.H, GateKind.X, GateKind.Y, GateKind.Z,
     GateKind.CX, GateKind.CY, GateKind.CZ}
)

_PARAM_ARITY = {GateKind.RZ: 1, GateKind.U3: 3, GateKind.CRX: 1}

# per kind: (qubit count, None for a barrier's any number; param count)
_SHAPE = {
    k: (None if k is GateKind.BARRIER else 2 if k in TWO_QUBIT_KINDS else 1,
        _PARAM_ARITY.get(k, 0))
    for k in GateKind
}


class GateError(ValueError):
    """Malformed gate (wrong arity, duplicate qubits, bad params)."""


@dataclass(frozen=True, slots=True)
class Gate:
    """One gate.  Params must be finite: gates serve as memo keys, and a NaN
    param would make a gate unequal to itself.  The hash is computed on
    first use and kept; it equals the hash of (kind, qubits, params, clbit),
    the frozen dataclass hash."""

    kind: GateKind
    qubits: tuple[int, ...]
    params: tuple[float, ...] = ()
    clbit: int | None = None  # MEASURE only
    _hash: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        kind, qubits, params = self.kind, self.qubits, self.params
        if len(set(qubits)) != len(qubits):
            raise GateError(f"duplicate qubits in {kind.value}: {qubits}")
        num_qubits, arity = _SHAPE[kind]
        if len(params) != arity:
            raise GateError(f"{kind.value} takes {arity} params, got {len(params)}")
        if params and not all(map(math.isfinite, params)):
            raise GateError(f"{kind.value} params must be finite: {params}")
        if num_qubits is None:
            if not qubits:
                raise GateError("barrier needs at least one qubit")
        elif len(qubits) != num_qubits:
            raise GateError(
                f"{kind.value} is a {'two' if num_qubits == 2 else 'single'}-qubit gate"
            )
        if kind is GateKind.MEASURE and self.clbit is None:
            raise GateError("measure needs a classical bit")

    def __hash__(self):
        try:
            return self._hash
        except AttributeError:
            h = hash((self.kind, self.qubits, self.params, self.clbit))
            object.__setattr__(self, "_hash", h)
            return h

    def __reduce__(self):
        # the kept hash holds string hashes, which differ between processes
        return (Gate, (self.kind, self.qubits, self.params, self.clbit))

    @property
    def num_qubits(self) -> int:
        return len(self.qubits)

    def is_unitary_gate(self) -> bool:
        return self.kind not in (GateKind.MEASURE, GateKind.BARRIER)

    def remapped(self, where: dict[int, int] | list[int]) -> "Gate":
        """Same gate on relabeled qubits."""
        qs = tuple(where[q] for q in self.qubits)
        return Gate(self.kind, qs, self.params, self.clbit)


_SQ2 = 1.0 / math.sqrt(2.0)

_FIXED_1Q = {
    GateKind.ID: np.eye(2, dtype=complex),
    GateKind.X: np.array([[0, 1], [1, 0]], dtype=complex),
    GateKind.Y: np.array([[0, -1j], [1j, 0]], dtype=complex),
    GateKind.Z: np.array([[1, 0], [0, -1]], dtype=complex),
    GateKind.H: np.array([[_SQ2, _SQ2], [_SQ2, -_SQ2]], dtype=complex),
    GateKind.SX: 0.5 * np.array([[1 + 1j, 1 - 1j], [1 - 1j, 1 + 1j]], dtype=complex),
}


def rz_matrix(theta: float) -> np.ndarray:
    return np.array(
        [[np.exp(-0.5j * theta), 0], [0, np.exp(0.5j * theta)]], dtype=complex
    )


def rx_matrix(theta: float) -> np.ndarray:
    c, s = math.cos(theta / 2), math.sin(theta / 2)
    return np.array([[c, -1j * s], [-1j * s, c]], dtype=complex)


def u3_matrix(theta: float, phi: float, lam: float) -> np.ndarray:
    c, s = math.cos(theta / 2), math.sin(theta / 2)
    return np.array(
        [
            [c, -np.exp(1j * lam) * s],
            [np.exp(1j * phi) * s, np.exp(1j * (phi + lam)) * c],
        ],
        dtype=complex,
    )


CX_MATRIX = np.array(
    [[1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0], [0, 1, 0, 0]], dtype=complex
)
SWAP_MATRIX = np.array(
    [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex
)


# shared by every gate of their kind: never written
for _m in (*_FIXED_1Q.values(), CX_MATRIX, SWAP_MATRIX):
    _m.flags.writeable = False
del _m


def _controlled(u: np.ndarray) -> np.ndarray:
    """Control on local qubit 0 (LSB), target on local qubit 1."""
    m = np.eye(4, dtype=complex)
    m[1, 1], m[1, 3] = u[0, 0], u[0, 1]
    m[3, 1], m[3, 3] = u[1, 0], u[1, 1]
    return m


def gate_matrix(gate: Gate) -> np.ndarray:
    """Dense matrix in the local little-endian frame of gate.qubits."""
    k = gate.kind
    if k in _FIXED_1Q:
        return _FIXED_1Q[k]
    if k is GateKind.RZ:
        return rz_matrix(gate.params[0])
    if k is GateKind.U3:
        return u3_matrix(*gate.params)
    if k is GateKind.CX:
        return CX_MATRIX
    if k is GateKind.SWAP:
        return SWAP_MATRIX
    if k is GateKind.CY:
        return _controlled(_FIXED_1Q[GateKind.Y])
    if k is GateKind.CZ:
        return _controlled(_FIXED_1Q[GateKind.Z])
    if k is GateKind.CRX:
        return _controlled(rx_matrix(gate.params[0]))
    raise GateError(f"{k.value} has no matrix")


def u3_params(m: np.ndarray, tol: float = 1e-12):
    """Extract (theta, phi, lam, phase) with m = exp(i*phase) * U3(theta, phi, lam).

    A (N, 2, 2) stack gives a list of N such tuples, each what its matrix
    alone gives: the angles are one ``np.angle`` per entry position, which
    rounds as on a scalar, while each ``abs`` and ``atan2`` stays a scalar
    operation (``abs`` of a numpy complex scalar and ``math.atan2`` round
    differently from ``np.abs`` and ``np.arctan2`` of an array)."""
    ms = m if m.ndim == 3 else m[None]
    angles = np.angle(ms).tolist()
    minus01 = np.angle(-ms[:, 0, 1]).tolist()
    out = []
    for mi, (row0, row1), neg01 in zip(ms, angles, minus01):
        abs00, abs10 = abs(mi[0, 0]), abs(mi[1, 0])
        theta = 2.0 * math.atan2(abs10, abs00)
        if abs00 < tol:
            # theta == pi column: m = e^{i phase} [[0, -e^{i lam}], [e^{i phi}, 0]]
            phase = row1[0]
            out.append((math.pi, 0.0, _wrap(neg01 - phase), phase))
            continue
        phase = row0[0]
        if abs10 < tol:
            out.append((0.0, _wrap(row1[1] - phase), 0.0, phase))
            continue
        out.append((theta, _wrap(row1[0] - phase), _wrap(neg01 - phase), phase))
    return out[0] if m.ndim == 2 else out


def _wrap(a: float) -> float:
    return (a + math.pi) % (2.0 * math.pi) - math.pi


def kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``np.kron`` of two matrices: the same elementwise products (so the
    same bits, signed zeros included) without its generic shape handling,
    which costs several times the product itself on 2x2 factors.  Either
    factor may be a (N, r, c) stack; the result is then the stack of
    products."""
    shape = np.broadcast_shapes(a.shape[:-2], b.shape[:-2])
    return (a[..., :, None, :, None] * b[..., None, :, None, :]).reshape(
        *shape, a.shape[-2] * b.shape[-2], a.shape[-1] * b.shape[-1]
    )


def allclose(a, b, atol: float) -> bool:
    """``np.allclose(a, b, atol=atol)`` with its default rtol of 1e-5, for
    arrays or numpy scalars.  Entry by entry it makes numpy's comparison,
    ``|a - b| <= atol + rtol * |b|``, and skips numpy's handling of an
    infinite b, so the two agree whenever b holds no infinity (every caller
    passes a finite reference)."""
    return bool((abs(a - b) <= atol + 1e-5 * abs(b)).all())


def is_identity_up_to_phase(m: np.ndarray, tol: float = 1e-10) -> bool:
    if abs(abs(m[0, 0]) - 1.0) > tol:
        return False
    return allclose(m / m[0, 0], np.eye(m.shape[0]), tol)
