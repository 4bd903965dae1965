"""Routing runs checked by replaying their ops against the DAG and layout;
this scales to devices the statevector oracle cannot hold."""

from dataclasses import replace

import numpy as np
import pytest

from optswap.circuit import Circuit
from optswap.gates import Gate, GateKind
from optswap.routing import (
    NASSC,
    SABRE,
    RouterConfig,
    _annotate_for_routing,
    distance_matrix_for,
    initial_mapping,
    optimize_circuit,
    route,
)
from optswap.topology import grid_map

from replay import ReplayMismatch, check_replay


def random_cx(rng, n, count):
    return Circuit(n, tuple(
        Gate(GateKind.CX, tuple(int(q) for q in rng.choice(n, 2, replace=False)))
        for _ in range(count)
    ))


def routed(circuit, cmap, cfg):
    """Route the way full_pipeline does; returns (dag, entry layout, outcome)."""
    logical = optimize_circuit(circuit)
    fwd = _annotate_for_routing(logical)
    rev = _annotate_for_routing(logical.with_gates(tuple(reversed(logical.gates))))
    dist = distance_matrix_for(cmap, cfg)
    entry = initial_mapping(fwd, rev, cmap, dist, cfg)
    outcome = route(fwd, cmap, dist, cfg, entry.copy(),
                    np.random.default_rng([cfg.seed, 0xF1A1]))
    return fwd, entry, outcome


@pytest.mark.parametrize("algorithm", [SABRE, NASSC])
def test_wide_grid_routes_replay(algorithm):
    cmap = grid_map(8, 8)
    for seed in range(3):
        circ = random_cx(np.random.default_rng([seed, 64]), 64, 80)
        dag, entry, outcome = routed(circ, cmap, RouterConfig(algorithm=algorithm, seed=seed))
        assert outcome.swaps_inserted > 0
        check_replay(dag, cmap, entry, outcome)


def test_replay_rejects_broken_routes():
    cmap = grid_map(8, 8)
    circ = random_cx(np.random.default_rng(7), 64, 80)
    dag, entry, outcome = routed(circ, cmap, RouterConfig(algorithm=NASSC))
    swaps = [i for i, op in enumerate(outcome.ops) if op.is_swap and not op.deleted]
    gates = [i for i, op in enumerate(outcome.ops) if not op.is_swap and not op.deleted]

    def broken(ops):
        return replace(outcome, ops=ops)

    ops = outcome.ops
    dependent = next(i for i in gates if dag.predecessors(ops[i].node_id))
    dropped_swap = ops[:swaps[0]] + ops[swaps[0] + 1:]
    dropped_gate = ops[:gates[-1]] + ops[gates[-1] + 1:]
    repeated_gate = ops + [ops[gates[0]]]
    hoisted_gate = [ops[dependent]] + ops[:dependent] + ops[dependent + 1:]
    for bad in (dropped_swap, dropped_gate, repeated_gate, hoisted_gate):
        with pytest.raises(ReplayMismatch):
            check_replay(dag, cmap, entry, broken(bad))
    assert entry.log_to_phys != outcome.final_mapping.log_to_phys
    with pytest.raises(ReplayMismatch):
        check_replay(dag, cmap, entry, replace(outcome, final_mapping=entry))
