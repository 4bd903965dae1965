"""A gate's matrix on a few wires, simulated column by column: a reference
for tests.

``simulated_embedding`` pushes each basis column through the statevector
simulator, the way ``commutation`` built its commutation matrices before it
built them from ``gate_matrix`` directly.  ``commutation._embedded`` must
give the same matrix (``np.array_equal``: equal values, signed zeros aside),
``commutation._commutator_max`` the same magnitude as
``reference_commutator_max`` (including the pairs it decides without
matrices), and ``commutation._commute_key`` the same decision as
``reference_commute``.
"""

from __future__ import annotations

import numpy as np

from optswap.gates import Gate, GateKind
from optswap.sim import apply_gate


def simulated_embedding(kind: GateKind, qubits: tuple[int, ...],
                        params: tuple[float, ...], n: int) -> np.ndarray:
    gate = Gate(kind, qubits, params)
    dim = 2**n
    u = np.eye(dim, dtype=complex)
    for col in range(dim):
        u[:, col] = apply_gate(np.ascontiguousarray(u[:, col]), gate, n)
    return u


def reference_commutator_max(k1, q1, p1, k2, q2, p2, n) -> float:
    a = simulated_embedding(k1, q1, p1, n)
    b = simulated_embedding(k2, q2, p2, n)
    return float(np.max(np.abs(a @ b - b @ a)))


def reference_commute(k1, q1, p1, k2, q2, p2, n) -> bool:
    return reference_commutator_max(k1, q1, p1, k2, q2, p2, n) < 1e-9
