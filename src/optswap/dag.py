"""Dependency DAG over circuit gates.

A ``CircuitDag`` is a circuit plus its wires: node ``nid`` is
``gates[nid]``, numbered in source order.  Gate j depends on gate i exactly
when j is the next user of one of i's qubits, so each qubit's gates form a
single path (``wires[q]``).  Source order is always a valid topological
order, so ``order`` is just the node ids.  The optimization passes take a
DAG and return one: a pass that changes gates picks the ones to keep from
``gates`` and builds the next DAG with ``with_gates``.

The analysis passes annotate a DAG: ``collect_blocks`` sets ``blocks``
and ``block_id``, and ``commutation_analysis`` sets ``commute_set``; each
is None until then.  A DAG's gates never change, so neither do its
annotations: the router routes on the DAG ``routing.optimize_circuit``
returns and analyses only what its predictors read and that DAG lacks.
"""

from __future__ import annotations

from .circuit import Circuit


class CircuitDag:
    def __init__(self, circuit: Circuit):
        self.circuit = circuit
        self.gates = circuit.gates
        self.order = range(len(self.gates))
        self.wires: list[list[int]] = [[] for _ in range(circuit.num_qubits)]
        self.blocks: list | None = None
        self.block_id: dict[int, int] | None = None  # node -> block
        self.commute_set: dict[tuple[int, int], int] | None = None  # (node, wire) -> set

        for nid, gate in enumerate(self.gates):
            for q in gate.qubits:
                self.wires[q].append(nid)

        # (node, qubit) -> position of the node on that qubit's wire
        self.wire_pos: dict[tuple[int, int], int] = {}
        for q, wire in enumerate(self.wires):
            for pos, nid in enumerate(wire):
                self.wire_pos[(nid, q)] = pos

    def with_gates(self, gates) -> CircuitDag:
        """The DAG of the same registers holding `gates` instead."""
        return CircuitDag(self.circuit.with_gates(gates))

    # -- structure ---------------------------------------------------------

    def predecessors(self, node_id: int) -> list[int]:
        """Gate predecessors (one per wire, deduplicated)."""
        preds = set()
        for q in self.gates[node_id].qubits:
            pos = self.wire_pos[(node_id, q)]
            if pos > 0:
                preds.add(self.wires[q][pos - 1])
        return sorted(preds)

    def successors(self, node_id: int) -> list[int]:
        succs = set()
        for q in self.gates[node_id].qubits:
            pos = self.wire_pos[(node_id, q)]
            if pos + 1 < len(self.wires[q]):
                succs.add(self.wires[q][pos + 1])
        return sorted(succs)


def build_dag(circuit: Circuit) -> CircuitDag:
    return CircuitDag(circuit)
