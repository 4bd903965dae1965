"""Dependency DAG over circuit gates.

A ``CircuitDag`` is a circuit plus its wires: node ``nid`` is
``gates[nid]``, numbered in source order.  Gate j depends on gate i exactly
when j is the next user of one of i's qubits, so each qubit's gates form a
single path (``wires[q]``).  Source order is always a valid topological
order, so ``order`` is just the node ids.  The optimization passes take a
DAG and return one: a pass that changes gates picks the ones to keep from
``gates`` and builds the next DAG with ``with_gates``.

The analysis passes annotate a DAG: ``collect_blocks`` assigns
``block_id`` and ``blocks``, ``annotate_block_costs`` writes into
``block_cx`` and ``block_cx_with_swap``, and ``commutation_analysis``
assigns ``commute_set``.  Until then ``block_id`` and ``commute_set`` read
as empty dicts; a subclass may compute them on first read instead (the
router's DAGs do).
"""

from __future__ import annotations

from functools import cached_property

from .circuit import Circuit


class CircuitDag:
    def __init__(self, circuit: Circuit):
        self.circuit = circuit
        self.gates = circuit.gates
        self.order = range(len(self.gates))
        self.wires: list[list[int]] = [[] for _ in range(circuit.num_qubits)]
        self.block_cx: dict[int, int] = {}
        self.block_cx_with_swap: dict[int, int] = {}

        for nid, gate in enumerate(self.gates):
            for q in gate.qubits:
                self.wires[q].append(nid)

        # (node, qubit) -> position of the node on that qubit's wire
        self.wire_pos: dict[tuple[int, int], int] = {}
        for q, wire in enumerate(self.wires):
            for pos, nid in enumerate(wire):
                self.wire_pos[(nid, q)] = pos

    @cached_property
    def block_id(self) -> dict[int, int]:
        return {}

    @cached_property
    def commute_set(self) -> dict[tuple[int, int], int]:
        return {}

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


def build_dag(circuit: Circuit, cls: type[CircuitDag] = CircuitDag) -> CircuitDag:
    return cls(circuit)
