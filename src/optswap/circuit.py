"""Circuit container and basic size/depth metrics."""

from __future__ import annotations

from dataclasses import dataclass

from .gates import Gate, GateKind


class CircuitError(ValueError):
    pass


class UndecomposedSwap(CircuitError):
    """A SWAP gate is still present where only basis gates are expected."""


@dataclass(frozen=True)
class Circuit:
    num_qubits: int
    gates: tuple[Gate, ...] = ()
    num_clbits: int = 0

    def __post_init__(self):
        for g in self.gates:
            for q in g.qubits:
                if not 0 <= q < self.num_qubits:
                    raise CircuitError(
                        f"gate {g.kind.value} on qubit {q} outside register of "
                        f"size {self.num_qubits}"
                    )
            if g.clbit is not None and not 0 <= g.clbit < self.num_clbits:
                raise CircuitError(f"classical bit {g.clbit} out of range")

    def __len__(self) -> int:
        return len(self.gates)

    def with_gates(self, gates) -> "Circuit":
        return Circuit(self.num_qubits, tuple(gates), self.num_clbits)

    def count(self, kind: GateKind) -> int:
        return sum(1 for g in self.gates if g.kind is kind)


def metrics(circuit: Circuit) -> dict[str, int]:
    """CNOT count, depth and gate count of a basis-gate circuit.

    Depth counts every non-barrier gate (1q and 2q alike) as one layer unit.
    SWAPs must have been decomposed first; their presence is an error because
    a SWAP's CNOT cost depends on the decomposition chosen.
    """
    if any(g.kind is GateKind.SWAP for g in circuit.gates):
        raise UndecomposedSwap("circuit still contains SWAP gates")
    cnot = 0
    gate_count = 0
    frontier = [0] * circuit.num_qubits
    for g in circuit.gates:
        if g.kind is GateKind.BARRIER:
            continue
        gate_count += 1
        if g.kind is GateKind.CX:
            cnot += 1
        level = 1 + max(frontier[q] for q in g.qubits)
        for q in g.qubits:
            frontier[q] = level
    depth = max(frontier) if circuit.num_qubits else 0
    return {"cnot_count": cnot, "depth": depth, "gate_count": gate_count}
