"""Checks on compiled outputs, made outside the timed region.

- coupling compliance, written here rather than borrowed from the router;
- semantic equivalence on the statevector oracle, restricted to the wires
  the routed circuit touches so that wide devices still fit it;
- a sha256 digest of everything a compile returns except its wall time.
"""

from __future__ import annotations

import hashlib
import json

from optswap import qasm, sim
from optswap.circuit import Circuit
from optswap.gates import GateKind
from optswap.topology import CouplingMap

# Random product states per equivalence check, on top of the all-zeros input.
ORACLE_TRIALS = 4


def compliance_errors(circuit: Circuit, cmap: CouplingMap) -> list[str]:
    """Gates that a device with this coupling map could not run."""
    errors = []
    if circuit.num_qubits != cmap.num_physical_qubits:
        errors.append(
            f"{circuit.num_qubits} wires on a {cmap.num_physical_qubits}-qubit device"
        )
    coupled = {frozenset(e) for e in cmap.edges}
    for pos, g in enumerate(circuit.gates):
        if g.kind is GateKind.SWAP:
            errors.append(f"gate {pos}: swap left undecomposed")
        elif g.kind is not GateKind.BARRIER and len(g.qubits) == 2:
            if frozenset(g.qubits) not in coupled:
                errors.append(f"gate {pos}: {g.kind.value}{g.qubits} off the coupling map")
    return errors


def _inverse(log_to_phys: list[int]) -> dict[int, int]:
    return {p: l for l, p in enumerate(log_to_phys)}


def compact(original: Circuit, routed: Circuit, initial: list[int], final: list[int]):
    """Both circuits restricted to the wires that matter, or None when more
    than ``sim.MAX_QUBITS`` wires do.

    The kept wires are those the routed circuit touches plus the start and
    end wires of every logical qubit of ``original``.  Logical qubits are the
    ones the full padded ``initial`` mapping places on kept wires; untouched
    wires keep their qubit, so ``final`` must place the same set on them.
    Returns (original', routed', final', initial') for
    ``sim.equivalent_up_to_permutation``.
    """
    wires = {q for g in routed.gates for q in g.qubits}
    for l in range(original.num_qubits):
        wires.update((initial[l], final[l]))
    if len(wires) > sim.MAX_QUBITS:
        return None
    wires = sorted(wires)
    start, end = _inverse(initial), _inverse(final)
    logicals = sorted(start[w] for w in wires)
    if logicals != sorted(end[w] for w in wires):
        raise ValueError("a logical qubit left the wires the routed circuit touches")
    wire_index = {w: i for i, w in enumerate(wires)}
    log_index = {l: i for i, l in enumerate(logicals)}
    m = len(wires)
    a = Circuit(m, tuple(g.remapped(log_index) for g in sim.strip_measurements(original).gates))
    b = Circuit(m, tuple(g.remapped(wire_index) for g in sim.strip_measurements(routed).gates))
    final_c = [wire_index[final[l]] for l in logicals]
    initial_c = [wire_index[initial[l]] for l in logicals]
    return a, b, final_c, initial_c


def equivalent(original: Circuit, routed: Circuit, initial: list[int],
               final: list[int]) -> bool | None:
    """True/False from the oracle, None when the touched wires do not fit it."""
    compacted = compact(original, routed, initial, final)
    if compacted is None:
        return None
    a, b, final_c, initial_c = compacted
    return sim.equivalent_up_to_permutation(a, b, final_c, initial_c, trials=ORACLE_TRIALS)


def compile_record(name: str, router: str, result) -> str:
    """Everything one compile returned except its wall time, as text."""
    stats = {k: v for k, v in result.stats.items() if k != "wall_time_s"}
    return "\n".join([
        f"{name} {router}",
        qasm.serialize_qasm(result.circuit),
        json.dumps(result.initial_mapping),
        json.dumps(result.final_mapping),
        json.dumps(stats, sort_keys=True),
    ])


def digest(records: list[str]) -> str:
    h = hashlib.sha256()
    for rec in records:
        h.update(rec.encode("utf-8"))
        h.update(b"\0")
    return h.hexdigest()
