import copy
import math
import pickle

import numpy as np
import pytest

from optswap.gates import (
    Gate,
    GateKind,
    GateError,
    CX_MATRIX,
    SWAP_MATRIX,
    allclose,
    gate_matrix,
    is_identity_up_to_phase,
    kron,
    u3_matrix,
    u3_params,
)

from conftest import haar_unitary, phase_distance


@pytest.mark.parametrize("kind", [k for k in GateKind if k is not GateKind.BARRIER])
def test_matrices_are_unitary(kind):
    if kind is GateKind.MEASURE:
        return
    params = {GateKind.RZ: (0.3,), GateKind.U3: (0.3, 0.7, -1.1), GateKind.CRX: (0.9,)}
    qubits = (0, 1) if kind in (GateKind.CX, GateKind.CY, GateKind.CZ,
                                GateKind.CRX, GateKind.SWAP) else (0,)
    m = gate_matrix(Gate(kind, qubits, params.get(kind, ())))
    assert np.allclose(m @ m.conj().T, np.eye(m.shape[0]), atol=1e-12)


def test_cx_little_endian_control_is_first_qubit():
    # basis index = bit(q0) + 2*bit(q1); CX(0,1) flips bit 1 when bit 0 is set
    assert np.allclose(CX_MATRIX @ np.eye(4)[:, 1], np.eye(4)[:, 3])
    assert np.allclose(CX_MATRIX @ np.eye(4)[:, 3], np.eye(4)[:, 1])
    assert np.allclose(CX_MATRIX @ np.eye(4)[:, 2], np.eye(4)[:, 2])


def test_swap_matrix_exchanges_basis():
    assert np.allclose(SWAP_MATRIX @ np.eye(4)[:, 1], np.eye(4)[:, 2])


def test_crx_pi_matches_controlled_x_up_to_phase():
    crx = gate_matrix(Gate(GateKind.CRX, (0, 1), (math.pi,)))
    # block acting on control=1 subspace is -i X
    assert np.isclose(crx[1, 3], -1j)
    assert np.isclose(crx[3, 1], -1j)


def test_u3_params_roundtrip(rng):
    for _ in range(200):
        m = haar_unitary(2, rng)
        theta, phi, lam, phase = u3_params(m)
        rebuilt = np.exp(1j * phase) * u3_matrix(theta, phi, lam)
        assert np.max(np.abs(rebuilt - m)) < 1e-10


def test_u3_params_handles_diagonal_and_antidiagonal():
    for m in (np.diag([1, 1j]), np.array([[0, 1], [-1, 0]], dtype=complex)):
        theta, phi, lam, phase = u3_params(m)
        rebuilt = np.exp(1j * phase) * u3_matrix(theta, phi, lam)
        assert np.max(np.abs(rebuilt - m)) < 1e-12


def test_identity_detection():
    assert is_identity_up_to_phase(np.exp(0.3j) * np.eye(2))
    assert not is_identity_up_to_phase(gate_matrix(Gate(GateKind.X, (0,))))


def _same_bits(a, b):
    return (np.array_equal(a, b)
            and np.array_equal(np.signbit(a.real), np.signbit(b.real))
            and np.array_equal(np.signbit(a.imag), np.signbit(b.imag)))


def test_kron_is_bitwise_numpy_kron(rng):
    signed_zeros = np.array([[0.0, -0.0], [-0.0 - 0.0j, 0.0 - 0.0j]])
    for trial in range(300):
        a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        b = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        if trial % 3 == 1:
            a = np.where(rng.random((2, 2)) < 0.5, signed_zeros, a)
        if trial % 3 == 2:
            a = np.eye(2)  # a real factor, as pair_unitary passes
            b = np.where(rng.random((2, 2)) < 0.5, signed_zeros, b)
        assert _same_bits(kron(a, b), np.kron(a, b))
        assert _same_bits(kron(b, a), np.kron(b, a))
    m = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    for eye in (np.eye(1), np.eye(2)):
        assert _same_bits(kron(m, eye), np.kron(m, eye))


def test_allclose_agrees_with_numpy(rng):
    def agree(a, b, atol):
        got = allclose(a, b, atol)
        assert got == np.allclose(a, b, atol=atol)
        return got

    outcomes = set()
    for _ in range(400):
        b = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        atol = 10.0 ** rng.uniform(-12, -6)
        noise = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        outcomes.add(agree(b + noise * atol * rng.uniform(0, 2), b, atol))
    assert outcomes == {True, False}

    for b in (np.eye(4), np.diag([1, 1j, -1, 1e3]) + 0.5):
        atol = 1e-9
        for i, j in ((0, 0), (3, 3), (0, 1), (2, 0)):  # diagonal and off it
            bound = atol + 1e-5 * abs(b[i, j])
            for scale, close in ((0.999, True), (1.001, False)):
                for step in (bound * scale, -1j * bound * scale):
                    a = b.astype(complex)
                    a[i, j] += step
                    assert agree(a, b, atol) is close
            for bad in (np.nan, np.inf, -np.inf, complex(0, np.inf)):
                a = b.astype(complex)
                a[i, j] = bad
                assert agree(a, b, atol) is False
                if bad is np.nan:
                    assert agree(b, a, atol) is False

    x = np.float64(0.25)
    for y, atol in ((x + 1e-10, 1e-10), (x + 2e-10, 1e-10), (x + 3e-6, 0.0)):
        assert allclose(x, np.float64(y), atol) == np.isclose(x, y, atol=atol)
    z = np.complex128(0.6 - 0.8j)
    for w in (z + 1e-8, z + 2e-8 * 1j, z * np.exp(1e-7j), np.complex128(np.nan)):
        assert allclose(z, w, 1e-8) == np.isclose(z, w, atol=1e-8)


def test_gate_validation():
    with pytest.raises(GateError):
        Gate(GateKind.CX, (1, 1))
    with pytest.raises(GateError):
        Gate(GateKind.RZ, (0,))  # missing parameter
    with pytest.raises(GateError):
        Gate(GateKind.H, (0, 1))
    with pytest.raises(GateError):
        Gate(GateKind.MEASURE, (0,))  # no classical bit
    for bad in (math.nan, math.inf, -math.inf, np.float64("nan")):
        with pytest.raises(GateError):
            Gate(GateKind.RZ, (0,), (bad,))
        with pytest.raises(GateError):
            Gate(GateKind.U3, (0,), (0.1, bad, 0.2))


@pytest.mark.parametrize("gate", [
    Gate(GateKind.CX, (3, 1)),
    Gate(GateKind.RZ, (0,), (-0.0,)),
    Gate(GateKind.U3, (2,), (0.5, np.float64(-1.25), 3.0)),
    Gate(GateKind.MEASURE, (1,), clbit=4),
    Gate(GateKind.BARRIER, (0, 2, 1)),
])
def test_gate_hash_is_the_dataclass_hash(gate):
    assert hash(gate) == hash((gate.kind, gate.qubits, gate.params, gate.clbit))
    assert hash(gate) == hash(gate)  # kept, and still the same
    again = pickle.loads(pickle.dumps(gate))
    assert again == gate and hash(again) == hash(gate)
    assert copy.deepcopy(gate) == gate
    assert not hasattr(gate, "__dict__")


def test_remapped():
    g = Gate(GateKind.CX, (0, 2))
    assert g.remapped([5, 4, 3]).qubits == (5, 3)
