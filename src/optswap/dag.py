"""Dependency DAG over circuit gates.

A node per gate, numbered in source order.  Gate j depends on gate i exactly
when j is the next user of one of i's qubits, so each qubit's gates form a
single path (``wires[q]``).  The DAG keeps the source gate order, which is
always a valid topological order; passes do list surgery on that order and
rebuild.
"""

from __future__ import annotations

from dataclasses import dataclass

from .circuit import Circuit
from .gates import Gate


@dataclass
class DagNode:
    gate: Gate  # the node id is the index in CircuitDag.nodes


class CircuitDag:
    def __init__(self, circuit: Circuit):
        self.num_qubits = circuit.num_qubits
        self.num_clbits = circuit.num_clbits
        self.nodes = [DagNode(gate) for gate in circuit.gates]
        self.wires: list[list[int]] = [[] for _ in range(circuit.num_qubits)]
        # gate-node order (node ids in source order)
        self.order: list[int] = list(range(len(self.nodes)))
        # annotations written by the analysis passes
        self.block_id: dict[int, int] = {}
        self.block_cx: dict[int, int] = {}
        self.block_cx_with_swap: dict[int, int] = {}
        self.commute_set: dict[tuple[int, int], int] = {}

        for nid, gate in enumerate(circuit.gates):
            for q in gate.qubits:
                self.wires[q].append(nid)

        # (node, qubit) -> position of the node on that qubit's wire
        self.wire_pos: dict[tuple[int, int], int] = {}
        for q, wire in enumerate(self.wires):
            for pos, nid in enumerate(wire):
                self.wire_pos[(nid, q)] = pos

    # -- structure ---------------------------------------------------------

    def predecessors(self, node_id: int) -> list[int]:
        """Gate predecessors (one per wire, deduplicated)."""
        node = self.nodes[node_id]
        preds = set()
        for q in node.gate.qubits:
            pos = self.wire_pos[(node_id, q)]
            if pos > 0:
                preds.add(self.wires[q][pos - 1])
        return sorted(preds)

    def successors(self, node_id: int) -> list[int]:
        node = self.nodes[node_id]
        succs = set()
        for q in node.gate.qubits:
            pos = self.wire_pos[(node_id, q)]
            if pos + 1 < len(self.wires[q]):
                succs.add(self.wires[q][pos + 1])
        return sorted(succs)

    def to_circuit(self) -> Circuit:
        return Circuit(
            self.num_qubits,
            tuple(self.nodes[i].gate for i in self.order),
            self.num_clbits,
        )


def build_dag(circuit: Circuit) -> CircuitDag:
    return CircuitDag(circuit)
