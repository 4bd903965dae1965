"""Translation validation of one routing run, at any circuit size.

``check_replay`` walks the live ops of a ``RouteOutcome`` in order, applying
each SWAP to a copy of the entry layout.  Every other op must be a DAG gate
whose predecessors were all emitted, remapped through the current layout and,
for a two-qubit gate, placed on a coupling.  Every DAG node must be emitted
exactly once and the replayed layout must end at ``final_mapping``.  Together
these make the routed ops the input circuit up to the tracked layout
permutation, with no simulation.
"""

from __future__ import annotations

from optswap.dag import CircuitDag
from optswap.routing import QubitMapping, RouteOutcome
from optswap.topology import CouplingMap


class ReplayMismatch(AssertionError):
    pass


def check_replay(
    dag: CircuitDag, cmap: CouplingMap, entry: QubitMapping, outcome: RouteOutcome
) -> None:
    layout = entry.copy()
    emitted: set[int] = set()
    for pos, op in enumerate(outcome.ops):
        if op.deleted:
            continue
        gate = op.gate
        if op.is_swap:
            if not cmap.has_edge(*gate.qubits):
                raise ReplayMismatch(f"op {pos}: SWAP{gate.qubits} is not on a coupling")
            layout.swap_physical(*gate.qubits)
            continue
        nid = op.node_id
        if nid is None or not 0 <= nid < len(dag.gates):
            raise ReplayMismatch(f"op {pos}: {gate} is not a DAG gate")
        if nid in emitted:
            raise ReplayMismatch(f"op {pos}: node {nid} emitted twice")
        missing = [p for p in dag.predecessors(nid) if p not in emitted]
        if missing:
            raise ReplayMismatch(f"op {pos}: node {nid} before its predecessors {missing}")
        expect = dag.gates[nid].remapped(layout.log_to_phys)
        if gate != expect:
            raise ReplayMismatch(f"op {pos}: {gate} is not node {nid} ({expect}) "
                                 "under the current layout")
        if gate.num_qubits == 2 and gate.is_unitary_gate() and not cmap.has_edge(*gate.qubits):
            raise ReplayMismatch(f"op {pos}: {gate} is not on a coupling")
        emitted.add(nid)
    if len(emitted) != len(dag.gates):
        missing = sorted(set(range(len(dag.gates))) - emitted)
        raise ReplayMismatch(f"nodes never emitted: {missing[:10]}")
    if layout.log_to_phys != outcome.final_mapping.log_to_phys:
        raise ReplayMismatch("replayed layout differs from final_mapping")
