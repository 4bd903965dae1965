"""Weyl-chamber coordinates of two-qubit unitaries: a reference for tests.

A two-qubit unitary is locally equivalent to exactly one canonical gate
exp(i (x XX + y YY + z ZZ)) with pi/4 >= x >= y >= |z|.  The coordinates are
solved from the spectrum of gamma(u) = u u^T in the magic basis, independently
of the trace tests ``min_cnot_count`` uses, so the two can be checked against
each other (two CNOTs suffice exactly when z = 0).
"""

from __future__ import annotations

import math
from itertools import permutations, product

import numpy as np

from optswap.synthesis import _E, _EDAG, _check_unitary, _gamma, to_su4

_PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
_PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
_PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)

# Magic-basis diagonals of XX, YY, ZZ (they are simultaneously diagonal there).
_INTERACTION_DIAGS = np.column_stack(
    [
        np.real(np.diag(_EDAG @ np.kron(p, p) @ _E))
        for p in (_PAULI_X, _PAULI_Y, _PAULI_Z)
    ]
)


def canonical_matrix(x: float, y: float, z: float) -> np.ndarray:
    """exp(i (x XX + y YY + z ZZ)) via the magic-basis diagonalization."""
    phases = _INTERACTION_DIAGS @ np.array([x, y, z])
    return _E @ np.diag(np.exp(1j * phases)) @ _EDAG


def _fold(c: float) -> float:
    """Into (-pi/4, pi/4] modulo the pi/2 shift symmetry."""
    c = (c + math.pi / 4) % (math.pi / 2) - math.pi / 4
    return math.pi / 4 if np.isclose(c, -math.pi / 4, atol=1e-12) else c


def _orbit(coords: tuple[float, float, float]) -> set[tuple[float, float, float]]:
    seen: set[tuple[float, float, float]] = set()
    frontier = [tuple(_fold(c) for c in coords)]
    while frontier:
        cur = frontier.pop()
        key = tuple(round(c, 10) for c in cur)
        if key in seen:
            continue
        seen.add(key)
        x, y, z = cur
        nxt = [p for p in permutations((x, y, z))]
        nxt += [(-x, -y, z), (-x, y, -z), (x, -y, -z)]
        for cand in nxt:
            folded = tuple(_fold(c) for c in cand)
            if tuple(round(c, 10) for c in folded) not in seen:
                frontier.append(folded)
    return seen


def weyl_coordinates(u: np.ndarray) -> tuple[float, float, float]:
    """Canonical interaction coefficients with pi/4 >= x >= y >= |z|."""
    u = _check_unitary(u)
    gamma = _gamma(to_su4(u))
    measured = np.angle(np.linalg.eigvals(gamma)) / 2.0
    raw = None
    best = math.inf
    for perm in permutations(range(4)):
        theta = measured[list(perm)]
        for shifts in product((-1.0, 0.0, 1.0), repeat=4):
            target = theta + math.pi * np.array(shifts)
            sol, res, _, _ = np.linalg.lstsq(_INTERACTION_DIAGS, target, rcond=None)
            err = float(np.linalg.norm(_INTERACTION_DIAGS @ sol - target))
            if err < best:
                best, raw = err, tuple(float(v) for v in sol)
            if best < 1e-9:
                break
        if best < 1e-9:
            break
    if raw is None or best > 1e-6:
        raise AssertionError("could not solve for interaction coefficients")
    chamber = [
        c
        for c in _orbit(raw)
        if c[0] >= c[1] - 1e-10
        and c[1] >= abs(c[2]) - 1e-10
        and c[0] <= math.pi / 4 + 1e-10
    ]
    if not chamber:
        raise AssertionError(f"no chamber representative for {raw}")
    coords = max(chamber)
    # Verify the representative is in the same local-equivalence class.  The
    # SU(4) normalization is only fixed up to a 4th root of unity, which flips
    # the sign of gamma, so compare spectra up to that sign (via characteristic
    # polynomials, which have no branch-cut trouble).
    evs_u = np.linalg.eigvals(gamma)
    evs_n = np.linalg.eigvals(_gamma(to_su4(canonical_matrix(*coords))))
    if not any(
        np.allclose(np.poly(evs_u), np.poly(sign * evs_n), atol=1e-6)
        for sign in (1.0, -1.0)
    ):
        raise AssertionError("chamber representative spectrum mismatch")
    return tuple(0.0 if abs(c) < 1e-12 else float(c) for c in coords)
