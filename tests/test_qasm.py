import math

import numpy as np
import pytest

from optswap.circuit import Circuit
from optswap.gates import Gate, GateKind
from optswap.qasm import ParseError, UnsupportedGate, parse_qasm, serialize_qasm
from optswap.sim import circuit_unitary


def test_parse_cx():
    c = parse_qasm("OPENQASM 2.0;\nqreg q[2];\ncx q[0],q[1];")
    assert c.num_qubits == 2
    assert c.gates == (Gate(GateKind.CX, (0, 1)),)


def test_parse_rz_with_pi_expression():
    c = parse_qasm("OPENQASM 2.0; qreg q[1]; rz(pi/2) q[0];")
    assert c.gates[0].kind is GateKind.RZ
    assert c.gates[0].params == (math.pi / 2,)


def test_parse_angle_arithmetic():
    c = parse_qasm("OPENQASM 2.0; qreg q[1]; rz(-3*pi/4) q[0]; rz(0.25) q[0];")
    assert np.isclose(c.gates[0].params[0], -3 * math.pi / 4)
    assert c.gates[1].params == (0.25,)


@pytest.mark.parametrize(
    "stmt, params",
    [
        ("u3(-(pi/2),0,pi) q[0];", (-math.pi / 2, 0.0, math.pi)),
        ("rz((pi/2)) q[0];", (math.pi / 2,)),
        ("rz(2*(pi+1)) q[0];", (2 * (math.pi + 1),)),
        ("u3( (1) , ((2)), 3*(1-(2-pi)) ) q[0];", (1.0, 2.0, 3 * (1 - (2 - math.pi)))),
        ("rz (0.5) q[0];", (0.5,)),
    ],
)
def test_parse_nested_parentheses(stmt, params):
    c = parse_qasm("OPENQASM 2.0; qreg q[1]; " + stmt)
    assert c.gates[0].params == params


def test_ccx_rewritten_to_exact_toffoli():
    c = parse_qasm("OPENQASM 2.0; qreg q[3]; ccx q[0],q[1],q[2];")
    cx_count = sum(1 for g in c.gates if g.kind is GateKind.CX)
    assert cx_count == 6
    assert all(g.num_qubits <= 2 for g in c.gates)
    u = circuit_unitary(c)
    expect = np.eye(8)
    expect[[3, 7], [3, 7]] = 0
    expect[3, 7] = expect[7, 3] = 1
    assert np.max(np.abs(u - expect)) < 1e-12


def test_u1_u2_u_normalized_to_u3():
    c = parse_qasm(
        "OPENQASM 2.0; qreg q[1];"
        "u1(pi/4) q[0]; u2(0, pi) q[0]; u(pi/2, 0, pi) q[0];"
    )
    assert all(g.kind is GateKind.U3 for g in c.gates)
    assert np.allclose(c.gates[0].params, (0, 0, math.pi / 4))
    assert np.allclose(c.gates[1].params, (math.pi / 2, 0, math.pi))


def test_register_broadcast():
    c = parse_qasm("OPENQASM 2.0; qreg q[3]; h q;")
    assert [g.qubits for g in c.gates] == [(0,), (1,), (2,)]


def test_measure_and_barrier():
    c = parse_qasm(
        "OPENQASM 2.0; qreg q[2]; creg c[2]; barrier q; measure q -> c;"
    )
    assert c.gates[0].kind is GateKind.BARRIER
    assert c.gates[0].qubits == (0, 1)
    assert c.gates[1] == Gate(GateKind.MEASURE, (0,), clbit=0)
    assert c.gates[2] == Gate(GateKind.MEASURE, (1,), clbit=1)


def test_unsupported_gate_raises_with_line():
    with pytest.raises(UnsupportedGate) as err:
        parse_qasm("OPENQASM 2.0;\nqreg q[2];\nrzz(0.1) q[0],q[1];")
    assert err.value.line == 3
    assert err.value.name == "rzz"


@pytest.mark.parametrize(
    "text",
    [
        "OPENQASM 2.0; qreg q[2]; qreg r[2];",
        "OPENQASM 2.0; qreg q[1]; cx q[0],q[5];",
        "OPENQASM 2.0; qreg q[1]; rz(sin(1)) q[0];",
        "OPENQASM 3.0; qreg q[1];",
        "OPENQASM 2.0; qreg q[2]; if (c==1) x q[0];",
        "OPENQASM 2.0; qreg q[1]; rz((pi/2) q[0];",
        "OPENQASM 2.0; qreg q[1]; rz(pi/2)) q[0];",
        "OPENQASM 2.0; qreg q[1]; rz(\x00) q[0];",
        # angles that are not finite real numbers
        "OPENQASM 2.0; qreg q[1]; rz(pi/0) q[0];",
        "OPENQASM 2.0; qreg q[1]; rz(0**-1) q[0];",
        "OPENQASM 2.0; qreg q[1]; rz(2**5000) q[0];",
        "OPENQASM 2.0; qreg q[1]; rz(10**400) q[0];",
        "OPENQASM 2.0; qreg q[1]; rz(1e400) q[0];",
        "OPENQASM 2.0; qreg q[1]; rz(1/1e400) q[0];",
        "OPENQASM 2.0; qreg q[1]; rz(1e308*10) q[0];",
        "OPENQASM 2.0; qreg q[1]; rz(1e400-1e400) q[0];",
        "OPENQASM 2.0; qreg q[1]; rz((-1)**0.5) q[0];",
        "OPENQASM 2.0; qreg q[1]; u3(0,1" + "0" * 400 + ",0) q[0];",
        "OPENQASM 2.0; qreg q[1]; rz(" + "1+" * 3000 + "1) q[0];",
    ],
)
def test_parse_errors(text):
    with pytest.raises(ParseError):
        parse_qasm(text)


def test_roundtrip_identity(rng):
    kinds_1q = [GateKind.ID, GateKind.X, GateKind.SX, GateKind.H, GateKind.Y, GateKind.Z]
    gates = []
    for i in range(60):
        pick = int(rng.integers(0, 5))
        q = int(rng.integers(0, 4))
        if pick == 0:
            gates.append(Gate(kinds_1q[int(rng.integers(len(kinds_1q)))], (q,)))
        elif pick == 1:
            gates.append(Gate(GateKind.RZ, (q,), (float(rng.uniform(-6, 6)),)))
        elif pick == 2:
            gates.append(Gate(GateKind.U3, (q,), tuple(rng.uniform(-3, 3, size=3))))
        else:
            r = int(rng.integers(0, 4))
            if r == q:
                r = (q + 1) % 4
            kind = [GateKind.CX, GateKind.CZ, GateKind.SWAP][pick - 3]
            gates.append(Gate(kind, (q, r)))
    circuit = Circuit(4, tuple(gates), 0)
    again = parse_qasm(serialize_qasm(circuit))
    assert again.gates == circuit.gates
    assert parse_qasm(serialize_qasm(again)).gates == again.gates


def test_serialize_measure_roundtrip():
    c = parse_qasm("OPENQASM 2.0; qreg q[2]; creg c[2]; cx q[0],q[1]; measure q -> c;")
    assert parse_qasm(serialize_qasm(c)).gates == c.gates
