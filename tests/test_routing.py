import math

import numpy as np
import pytest

from optswap.bench import builtin_circuit
from optswap.circuit import Circuit, metrics
from optswap.commutation import DecompositionLabel, commutation_analysis
from optswap.dag import build_dag
from optswap.gates import SWAP_MATRIX, Gate, GateKind
from optswap import commutation, routing, synthesis
from optswap.memo import CompileMemo
from optswap.routing import (
    NASSC,
    SABRE,
    QubitMapping,
    RoutedOp,
    RouterConfig,
    RoutingError,
    SwapCandidate,
    TooFewPhysicalQubits,
    _greedy_resolve,
    _RouteState,
    _score_edges,
    decompose_swaps,
    distance_matrix_for,
    enumerate_candidates,
    full_pipeline,
    initial_mapping,
    optimize_circuit,
    resynthesize_blocks,
    route,
)
from optswap.sim import circuit_unitary, equivalent_up_to_permutation
from optswap.synthesis import collect_blocks, pair_unitary
from optswap.topology import NoiseProfile, grid_map, linear_map, montreal_map

from annotate_reference import annotate_eagerly, assert_same_annotations
from conftest import phase_distance
from test_memo import forgetful
from direct_score import direct_score
from route_reference import Layer, reference_route, reference_score_edges, score_candidate


def cx(a, b):
    return Gate(GateKind.CX, (a, b))


def crx(t, a, b):
    return Gate(GateKind.CRX, (a, b), (t,))


def u3(q):
    return Gate(GateKind.U3, (q,), (0.3, 0.5, 0.7))


FIG1 = Circuit(3, (crx(math.pi / 3, 1, 2), crx(math.pi / 5, 0, 1),
                   crx(math.pi / 7, 0, 2)))

LAYERED = Circuit(4, (cx(2, 1), crx(0.4, 0, 1), cx(2, 3), cx(0, 2),
                      crx(0.4, 1, 2), cx(0, 1)))


def annotated(circuit):
    """A DAG of `circuit` with the blocks and commute sets the predictors read."""
    dag = build_dag(circuit)
    collect_blocks(dag)
    commutation_analysis(dag, CompileMemo())
    return dag


def make_state(circuit, cmap, mapping=None, annotate=True, cfg=None):
    dag = annotated(circuit) if annotate else build_dag(circuit)
    n = cmap.num_physical_qubits
    mapping = mapping or QubitMapping(list(range(n)))
    flags = cfg.flags() if cfg is not None else (False, False, False)
    return _RouteState(dag, CompileMemo(), cmap, mapping, flags)


def scored(state, edges, front, ext, dist, cfg):
    """The router's candidates for edges, with their costs and predictions."""
    costs = _score_edges(state, edges, front, ext, dist.tolist(), cfg)
    return [SwapCandidate(edge, *state.predict(*edge), cost=cost)
            for edge, cost in zip(edges, costs)]


def test_qubit_mapping_invariants():
    m = QubitMapping([2, 0, 1])
    assert m.phys_to_log == [1, 2, 0]
    m.swap_physical(0, 2)
    assert m.log_to_phys[m.phys_to_log[0]] == 0
    with pytest.raises(ValueError):
        QubitMapping([0, 0, 1])


@pytest.mark.parametrize("weight", [math.nan, math.inf, -math.inf, -0.5])
def test_router_config_rejects_bad_extended_weight(weight):
    # a NaN weight made every cost NaN, so no candidate tied with the minimum
    # and route raised an untyped IndexError (cx(0, 4), cx(0, 2) on linear(5))
    with pytest.raises(ValueError, match="extended_weight"):
        RouterConfig(extended_weight=weight)


@pytest.mark.parametrize("size", [2.5, 20.0, "20", True, None, -1])
def test_router_config_rejects_bad_extended_size(size):
    with pytest.raises(ValueError, match="extended_size"):
        RouterConfig(extended_size=size)


@pytest.mark.parametrize("field, value", [
    # numpy leaked "expected non-negative integer" or "seed must be integer"
    ("seed", -1), ("seed", 1.5), ("seed", "3"), ("seed", True), ("seed", None),
    # a float or string raised TypeError; a count below 1 ran no layout pass
    ("traversals", 2.5), ("traversals", "3"), ("traversals", False),
    ("traversals", 0), ("traversals", -4),
])
def test_router_config_rejects_bad_seed_or_traversals(field, value):
    with pytest.raises(ValueError, match=field):
        RouterConfig(**{field: value})


@pytest.mark.parametrize("field, value", [
    # a truthy string switched the predictor on under the plain nassc tag
    ("b_2q", "false"), ("b_commute1", 1), ("b_commute2", None),
    # a string leaked TypeError, and True was taken as a weight of 1.0
    ("extended_weight", "0.5"), ("extended_weight", True), ("extended_weight", None),
    # failed later, inside the distance computation, with AttributeError
    ("noise_profile", 123), ("noise_profile", {"cx_error": {}}),
])
def test_router_config_rejects_bad_flags_weight_or_noise(field, value):
    with pytest.raises(ValueError, match=field):
        RouterConfig(**{field: value})


def test_one_traversal_routes_from_the_random_start():
    circ = Circuit(4, (cx(0, 3), cx(1, 2), cx(0, 2)))
    res = full_pipeline(circ, linear_map(4), RouterConfig(seed=4, traversals=1))
    start = np.random.default_rng([4, 0xA11]).permutation(4)
    assert res.initial_mapping == [int(p) for p in start]


def test_enumerate_candidates_layered_example():
    # front gate CX(0,2) on a 4-qubit line: edges touching q0 or q2
    cmap = linear_map(4)
    state = make_state(Circuit(4, (cx(0, 2),)), cmap)
    state.drain_front()
    front = list(state.front)
    assert enumerate_candidates(state, front) == [(0, 1), (1, 2), (2, 3)]


def test_enumerate_candidates_dedupes_shared_qubit():
    cmap = linear_map(4)
    state = make_state(Circuit(4, (cx(0, 2), cx(1, 3))), cmap)
    state.drain_front()
    front = list(state.front)
    edges = enumerate_candidates(state, front)
    assert edges == sorted(set(edges))


def test_cost_degenerate_distance_only():
    # single front gate at distance 2 after the SWAP, no lookahead, no C_k
    cmap = linear_map(4)
    cfg = RouterConfig(algorithm=SABRE, extended_size=0)
    state = make_state(Circuit(4, (cx(0, 3),)), cmap, cfg=cfg)
    state.drain_front()
    front = list(state.front)
    dist = distance_matrix_for(cmap, cfg)
    (cand,) = scored(state, [(0, 1)], front, [], dist, cfg)
    assert cand.cost == pytest.approx(6.0)  # 3 * distance(1, 3)


def test_cost_fig1_block_merge_wins():
    # after resolving the first two gates, the SWAP merging into the block
    # on (0, 1) is strictly cheaper than the one next to unrelated blocks
    cmap = linear_map(3)
    cfg = RouterConfig(algorithm=NASSC)
    circ = optimize_circuit(FIG1, CompileMemo()).circuit
    state = make_state(circ, cmap, cfg=cfg)
    state.drain_front()
    front = list(state.front)
    dist = distance_matrix_for(cmap, cfg)
    ext = state.extended_layer(front, cfg.extended_size)
    merge, other = scored(state, [(0, 1), (1, 2)], front, ext, dist, cfg)
    assert merge.c2q == 2
    assert merge.cost < other.cost


def test_cost_fig4_commute_cancellation_wins():
    # candidate SWAP(1,2) cancels against the resolved CX(2,1); SWAP(0,1)
    # only merges a block, so the commute candidate wins the tie
    cmap = linear_map(4)
    cfg = RouterConfig(algorithm=NASSC)
    state = make_state(LAYERED, cmap, cfg=cfg)
    state.drain_front()
    front = list(state.front)
    assert [state.dag.gates[n] for n in front] == [cx(0, 2)]
    dist = distance_matrix_for(cmap, cfg)
    ext = state.extended_layer(front, cfg.extended_size)
    block_cand, commute_cand = scored(state, [(0, 1), (1, 2)], front, ext, dist, cfg)
    assert commute_cand.ccommute1 == 2
    assert commute_cand.label.control_phys == 2
    assert block_cand.c2q == 2
    assert commute_cand.cost < block_cand.cost


def test_extended_layer_orders_and_caps():
    state = make_state(LAYERED, linear_map(4))
    state.drain_front()
    front = list(state.front)
    ext = state.extended_layer(front, 1)
    assert len(ext) == 1
    ext20 = state.extended_layer(front, 20)
    gates = [state.dag.gates[n] for n in ext20]
    assert gates == [crx(0.4, 1, 2), cx(0, 1)]


# -- relative scoring against the direct sum ------------------------------------


def random_circuit(rng, n, n_2q, n_1q):
    gates = [cx(*(int(q) for q in rng.choice(n, 2, replace=False))) for _ in range(n_2q)]
    for _ in range(n_1q):
        gates.insert(int(rng.integers(len(gates) + 1)), u3(int(rng.integers(n))))
    for i in rng.choice(len(gates), len(gates) // 5, replace=False):
        if gates[i].kind is GateKind.CX:
            gates[i] = crx(float(rng.uniform(0.1, 3.0)), *gates[i].qubits)
    return Circuit(n, tuple(gates))


def random_noise(cmap, rng):
    edges = cmap.sorted_edges()
    return NoiseProfile({e: float(rng.uniform(0.005, 0.04)) for e in edges},
                        {e: float(rng.uniform(0.5, 2.0)) for e in edges})


def compare_scores(circuit, cmap, cfg, rng, steps, tol):
    """Walk seeded random routing states; at each, enumerate the candidates
    and score every one both ways.  Returns the largest extended layer seen."""
    dist = distance_matrix_for(cmap, cfg)
    n = cmap.num_physical_qubits
    mapping = QubitMapping([int(p) for p in rng.permutation(n)])
    state = make_state(circuit, cmap, mapping, cfg=cfg)
    widest = 0
    for _ in range(steps):
        state.drain_front()
        if not state.front:
            break
        front = list(state.front)
        ext = state.extended_layer(front, cfg.extended_size)
        widest = max(widest, len(ext))
        touched = {state.mapping.log_to_phys[q]
                   for nid in front for q in state.dag.gates[nid].qubits}
        edges = enumerate_candidates(state, front)
        assert edges == [e for e in cmap.sorted_edges() if touched & set(e)]
        cands = []
        for edge, cand in zip(edges, scored(state, edges, front, ext, dist, cfg)):
            ref = direct_score(state, edge, front, ext, dist, cfg)
            if tol == 0:
                assert cand.cost == ref.cost, edge
            else:
                assert abs(cand.cost - ref.cost) <= tol, edge
            assert (cand.c2q, cand.ccommute1, cand.ccommute2, cand.label) == (
                ref.c2q, ref.ccommute1, ref.ccommute2, ref.label)
            assert cand.prev_swap_entry is ref.prev_swap_entry
            cands.append(cand)
        # alternate the best candidate with a random one to reach varied states
        if rng.random() < 0.5:
            choice = min(cands, key=lambda c: c.cost)
        else:
            choice = cands[int(rng.integers(len(cands)))]
        state.insert_swap(choice)
    return widest


@pytest.mark.parametrize("algorithm", [SABRE, NASSC])
@pytest.mark.parametrize("extended_size", [0, 20])
@pytest.mark.parametrize("device", ["montreal", "grid88", "noisy_grid25"])
def test_relative_score_matches_direct_sum(device, extended_size, algorithm):
    for seed in range(2):
        rng = np.random.default_rng([seed, extended_size])
        if device == "montreal":
            cmap, noise, tol = montreal_map(), None, 0.0
            circ = random_circuit(rng, 27, 60, 40)
        elif device == "grid88":
            cmap, noise, tol = grid_map(8, 8), None, 0.0
            circ = random_circuit(rng, 64, 80, 40)
        else:
            cmap, tol = grid_map(2, 5), 1e-12
            noise = random_noise(cmap, rng)
            circ = random_circuit(rng, 10, 60, 30)
        cfg = RouterConfig(algorithm=algorithm, extended_size=extended_size,
                           noise_profile=noise)
        widest = compare_scores(circ, cmap, cfg, rng, steps=40, tol=tol)
        assert widest == extended_size  # the layer was empty, or reached its cap


def test_route_reuses_extended_layer_only_while_front_is_unchanged(monkeypatch):
    fresh_extended = _RouteState.extended_layer
    computed = []

    def counting(self, front_2q, cap):
        computed.append(list(front_2q))
        return fresh_extended(self, front_2q, cap)

    score = routing._score_edges
    scored: list = []  # the front layer of each scored iteration

    def checked(state, edges, front_2q, extended, rows, cfg):
        scored.append(list(front_2q))
        fresh = fresh_extended(state, front_2q, cfg.extended_size)
        assert extended == fresh
        # the extended layer is scored under the current layout, not the one
        # it was first computed under
        expected = reference_score_edges(state, edges, Layer(state, front_2q, rows),
                                         Layer(state, fresh, rows), cfg)
        costs = score(state, edges, front_2q, extended, rows, cfg)
        assert costs == expected
        return costs

    monkeypatch.setattr(_RouteState, "extended_layer", counting)
    monkeypatch.setattr(routing, "_score_edges", checked)
    cmap = grid_map(8, 8)
    rng = np.random.default_rng(5)
    circ = random_circuit(rng, 64, 80, 0)
    for algorithm in (SABRE, NASSC):
        cfg = RouterConfig(algorithm=algorithm)
        mapping = QubitMapping([int(p) for p in rng.permutation(64)])
        route(annotated(circ), CompileMemo(), cmap, distance_matrix_for(cmap, cfg), cfg,
              mapping, np.random.default_rng(0))
    assert 0 < len(computed) < len(scored)
    # consecutive recomputations are for different fronts
    assert all(a != b for a, b in zip(computed, computed[1:]))


# -- the incremental loop against the from-scratch reference ---------------------


def op_record(outcome):
    ops = [(op.gate, op.node_id, op.is_swap, op.label, op.deleted) for op in outcome.ops]
    return (ops, outcome.final_mapping.log_to_phys, outcome.swaps_inserted,
            outcome.swaps_opt_2q, outcome.swaps_opt_commute)


def routed_both_ways(circuit, cmap, cfg, layout, seed):
    """(route's record, the reference loop's record) on the same inputs."""
    dag, memo = annotated(circuit), CompileMemo()
    dist = distance_matrix_for(cmap, cfg)
    new = route(dag, memo, cmap, dist, cfg, QubitMapping(list(layout)),
                np.random.default_rng(seed))
    ref = reference_route(dag, memo, cmap, dist, cfg, QubitMapping(list(layout)),
                          np.random.default_rng(seed))
    return op_record(new), op_record(ref)


def reference_case(device, rng):
    """A seeded (circuit, coupling map, noise profile) on one device."""
    if device == "montreal":
        return random_circuit(rng, 27, 60, 40), montreal_map(), None
    if device == "grid88":
        return random_circuit(rng, 64, 80, 40), grid_map(8, 8), None
    cmap = grid_map(2, 5)
    return random_circuit(rng, 10, 60, 30), cmap, random_noise(cmap, rng)


@pytest.mark.parametrize("algorithm", [SABRE, NASSC])
@pytest.mark.parametrize("extended_size", [0, 20])
@pytest.mark.parametrize("device", ["montreal", "grid88", "noisy_grid25"])
def test_route_matches_reference_loop(device, extended_size, algorithm):
    swaps = opt_2q = opt_commute = 0
    for seed in range(3):
        rng = np.random.default_rng([seed, extended_size, 7])
        circ, cmap, noise = reference_case(device, rng)
        cfg = RouterConfig(algorithm=algorithm, extended_size=extended_size,
                           noise_profile=noise)
        layout = [int(p) for p in rng.permutation(cmap.num_physical_qubits)]
        new, ref = routed_both_ways(circ, cmap, cfg, layout, seed)
        assert new == ref
        swaps += new[2]
        opt_2q += new[3]
        opt_commute += new[4]
    assert swaps > 0
    if algorithm == NASSC:  # the predictions steered some SWAPs
        assert opt_2q > 0 and opt_commute > 0


def test_route_matches_reference_loop_through_stall_fallback(monkeypatch):
    resolve = routing._greedy_resolve
    fired = []

    def counting(state, nid, dist):
        fired.append(nid)
        return resolve(state, nid, dist)

    monkeypatch.setattr(routing, "_greedy_resolve", counting)
    cmap = linear_map(6)
    # a heavy lookahead makes the cost search cycle on a line
    cfg = RouterConfig(algorithm=NASSC, extended_weight=10.0)
    for seed in range(8):
        rng = np.random.default_rng([seed, 11])
        circ = random_circuit(rng, 6, 12, 4)
        layout = [int(p) for p in rng.permutation(6)]
        new, ref = routed_both_ways(circ, cmap, cfg, layout, seed)
        assert new == ref
    assert fired


# -- per-qubit layer tables against the reference scorer -------------------------


def assert_tables_clear(state):
    assert state.front_on == [None] * len(state.front_on)
    assert state.ext_on == [None] * len(state.ext_on)


def tables_match_reference(state, edges, front_2q, extended, rows, cfg, seen):
    """Score `edges` with the tables and with the reference layers: the same
    costs, float for float.  Counts in `seen` what the call covered."""
    for u, v in edges:
        entry = state.predictions.get((u, v))
        fresh = entry is not None and entry[:2] == (state.version[u], state.version[v])
        seen["hit" if fresh else "miss"] += 1
    costs = _score_edges(state, edges, front_2q, extended, rows, cfg)
    assert_tables_clear(state)
    front, ext = Layer(state, front_2q, rows), Layer(state, extended, rows)
    assert costs == reference_score_edges(state, edges, front, ext, cfg)
    own = {(min(pa, pb), max(pa, pb)) for pa, pb, _ in
           (pair for pairs in front.on.values() for pair in pairs)}
    seen["own_pair"] += len(own & set(edges))
    seen["shared_ext"] += any(len(pairs) > 1 for pairs in ext.on.values())


@pytest.mark.parametrize("algorithm", [SABRE, NASSC])
@pytest.mark.parametrize("extended_size", [0, 20])
@pytest.mark.parametrize("device", ["montreal", "grid88", "noisy_grid25"])
def test_layer_tables_score_as_the_reference_layers(device, extended_size, algorithm):
    seen = {"hit": 0, "miss": 0, "own_pair": 0, "shared_ext": 0}
    for seed in range(2):
        rng = np.random.default_rng([seed, extended_size, 13])
        circ, cmap, noise = reference_case(device, rng)
        cfg = RouterConfig(algorithm=algorithm, extended_size=extended_size,
                           noise_profile=noise)
        rows = distance_matrix_for(cmap, cfg).tolist()
        n = cmap.num_physical_qubits
        state = make_state(circ, cmap, QubitMapping([int(p) for p in rng.permutation(n)]),
                           cfg=cfg)
        assert_tables_clear(state)
        for _ in range(30):
            # before the drain the front holds gates on couplings: each
            # coupling edge, their own pairs included, is a candidate
            undrained = [nid for nid in state.front if state.needs_edge[nid]]
            if undrained:
                ext = state.extended_layer(undrained, extended_size)
                tables_match_reference(state, cmap.sorted_edges(), undrained, ext, rows,
                                       cfg, seen)
            state.drain_front()
            if not state.front:
                break
            front = list(state.front)
            ext = state.extended_layer(front, extended_size)
            edges = enumerate_candidates(state, front)
            tables_match_reference(state, edges, front, ext, rows, cfg, seen)
            state.insert_swap(SwapCandidate(edges[int(rng.integers(len(edges)))]))
    assert seen["own_pair"] > 0
    if extended_size:
        assert seen["shared_ext"] > 0
    if algorithm == NASSC:
        assert seen["hit"] > 0 and seen["miss"] > 0


@pytest.mark.parametrize("cmap", [grid_map(8, 8), linear_map(25), montreal_map()],
                         ids=["grid88", "linear25", "montreal"])
def test_drained_front_is_qubit_disjoint_and_off_the_coupling_map(cmap, monkeypatch):
    # the front table holds one pair per physical qubit
    score = routing._score_edges
    iterations = []

    def checked(state, edges, front_2q, extended, rows, cfg):
        qubits = [q for nid in front_2q for q in state.node_qubits[nid]]
        assert len(qubits) == len(set(qubits))
        assert all(state.needs_edge[nid] and not state.executable(nid) for nid in front_2q)
        iterations.append(len(front_2q))
        return score(state, edges, front_2q, extended, rows, cfg)

    monkeypatch.setattr(routing, "_score_edges", checked)
    n = cmap.num_physical_qubits
    for seed in range(2):
        rng = np.random.default_rng([seed, n])
        circ = random_circuit(rng, n, 3 * n, n)
        for algorithm in (SABRE, NASSC):
            cfg = RouterConfig(algorithm=algorithm)
            route(annotated(circ), CompileMemo(), cmap, distance_matrix_for(cmap, cfg), cfg,
                  QubitMapping([int(p) for p in rng.permutation(n)]),
                  np.random.default_rng(seed))
    assert iterations and max(iterations) > 1


def test_route_scores_what_enumerate_candidates_returns_once_per_iteration(monkeypatch):
    # perfbench counts route iterations and candidates by rebinding the
    # module global routing.enumerate_candidates
    enumerate_fn, score = routing.enumerate_candidates, routing._score_edges
    enumerated, scored_edges = [], []

    def recording(state, front_2q):
        enumerated.append(enumerate_fn(state, front_2q))
        return enumerated[-1]

    def checked(state, edges, front_2q, extended, rows, cfg):
        scored_edges.append(edges)
        return score(state, edges, front_2q, extended, rows, cfg)

    monkeypatch.setattr(routing, "enumerate_candidates", recording)
    monkeypatch.setattr(routing, "_score_edges", checked)
    cmap = grid_map(8, 8)
    rng = np.random.default_rng(21)
    circ = random_circuit(rng, 64, 80, 20)
    for algorithm in (SABRE, NASSC):
        enumerated.clear()
        scored_edges.clear()
        cfg = RouterConfig(algorithm=algorithm)
        outcome = route(annotated(circ), CompileMemo(), cmap, distance_matrix_for(cmap, cfg), cfg,
                        QubitMapping([int(p) for p in rng.permutation(64)]),
                        np.random.default_rng(0))
        # no stall fallback ran: each SWAP was one scored iteration
        assert len(enumerated) == len(scored_edges) == outcome.swaps_inserted > 0
        assert all(a is b for a, b in zip(enumerated, scored_edges))


def test_route_serves_cached_predictions_equal_to_fresh_ones(monkeypatch):
    score = routing._score_edges
    served = {"hit": 0, "miss": 0}

    def checked(state, edges, front_2q, extended, rows, cfg):
        for u, v in edges:
            entry = state.predictions.get((u, v))
            fresh = entry is not None and entry[:2] == (state.version[u], state.version[v])
            served["hit" if fresh else "miss"] += 1
        costs = score(state, edges, front_2q, extended, rows, cfg)
        front, ext = Layer(state, front_2q, rows), Layer(state, extended, rows)
        for edge, cost in zip(edges, costs):
            ref = score_candidate(state, edge, front, ext, cfg)
            assert state.predict(*edge) == (ref.c2q, ref.ccommute1, ref.ccommute2,
                                            ref.label, ref.prev_swap_entry)
            assert cost == ref.cost
        return costs

    monkeypatch.setattr(routing, "_score_edges", checked)
    cmap = montreal_map()
    rng = np.random.default_rng(9)
    for _ in range(3):
        circ = random_circuit(rng, 27, 60, 40)
        cfg = RouterConfig(algorithm=NASSC)
        mapping = QubitMapping([int(p) for p in rng.permutation(27)])
        route(annotated(circ), CompileMemo(), cmap, distance_matrix_for(cmap, cfg), cfg,
              mapping, np.random.default_rng(0))
    assert served["hit"] > 0 and served["miss"] > 0


def test_greedy_resolve_walks_gate_onto_a_coupling():
    cmap = linear_map(5)
    state = make_state(Circuit(5, (cx(0, 4),)), cmap, annotate=False)
    state.drain_front()
    (nid,) = state.front
    dist = distance_matrix_for(cmap, RouterConfig()).tolist()
    assert _greedy_resolve(state, nid, dist) == 3
    assert state.executable(nid)
    assert [op.gate.qubits for op in state.ops if op.is_swap] == [(0, 1), (1, 2), (2, 3)]
    mapping = state.mapping
    assert sorted(mapping.log_to_phys) == list(range(5))
    assert all(mapping.phys_to_log[p] == q for q, p in enumerate(mapping.log_to_phys))


def test_initial_mapping_deterministic():
    cmap = linear_map(4)
    cfg = RouterConfig(algorithm=NASSC, seed=42)
    circ = optimize_circuit(LAYERED, CompileMemo()).circuit
    fwd = annotated(circ)
    rev = annotated(circ.with_gates(tuple(reversed(circ.gates))))
    dist = distance_matrix_for(cmap, cfg)
    first = initial_mapping(fwd, rev, CompileMemo(), cmap, dist, cfg)
    for _ in range(10):
        again = initial_mapping(fwd, rev, CompileMemo(), cmap, dist, cfg)
        assert again.log_to_phys == first.log_to_phys


@pytest.mark.parametrize("traversals", [1, 3])
def test_initial_mapping_depends_on_the_router_after_refinement(traversals):
    # the last refinement pass routes with the configured algorithm, so the
    # routers share a layout only when there is no refinement pass
    circ = builtin_circuit("grover_n4")
    entry = [
        full_pipeline(circ, montreal_map(),
                      RouterConfig(algorithm=algorithm, traversals=traversals)).initial_mapping
        for algorithm in (SABRE, NASSC)
    ]
    assert (entry[0] == entry[1]) == (traversals == 1)


def test_route_compliant_circuit_inserts_nothing():
    cmap = linear_map(2)
    cfg = RouterConfig(algorithm=NASSC, seed=3)
    res = full_pipeline(Circuit(2, (cx(0, 1),)), cmap, cfg)
    assert res.stats["swaps_inserted"] == 0
    assert res.stats["cnot_add"] == 0


def test_route_identity_circuit_keeps_mapping():
    cmap = linear_map(3)
    circ = Circuit(3, (u3(0), u3(1), u3(2)))
    dag = annotated(circ)
    mapping = QubitMapping([2, 0, 1])
    out = route(dag, CompileMemo(), cmap, distance_matrix_for(cmap, RouterConfig()),
                RouterConfig(), mapping, np.random.default_rng(0))
    assert out.swaps_inserted == 0
    assert out.final_mapping.log_to_phys == [2, 0, 1]


def test_too_few_physical_qubits():
    with pytest.raises(TooFewPhysicalQubits):
        full_pipeline(Circuit(5, (cx(0, 4),)), linear_map(3), RouterConfig())


def test_decompose_swaps_orientations():
    label = DecompositionLabel(1, "commute1")
    ops = [RoutedOp(Gate(GateKind.SWAP, (0, 1)), None, is_swap=True, label=label)]
    gates = decompose_swaps(ops)
    assert gates == [cx(1, 0), cx(0, 1), cx(1, 0)]
    ops = [RoutedOp(Gate(GateKind.SWAP, (2, 1)), None, is_swap=True)]
    assert decompose_swaps(ops) == [cx(1, 2), cx(2, 1), cx(1, 2)]
    # decomposition is unitarily a SWAP either way
    for swap_ops in (decompose_swaps(ops),):
        u = circuit_unitary(Circuit(3, tuple(swap_ops)))
        expect = circuit_unitary(Circuit(3, (Gate(GateKind.SWAP, (1, 2)),)))
        assert np.max(np.abs(u - expect)) < 1e-12


# -- moving 1q gates through an inserted SWAP ------------------------------------

COMMUTE = DecompositionLabel(0, "commute1")
SWAP01 = Gate(GateKind.SWAP, (0, 1))
A0 = Gate(GateKind.U3, (0,), (0.1, 0.2, 0.3))
B1 = Gate(GateKind.U3, (1,), (0.4, 0.5, 0.6))


def swap_after(circuit, *labels):
    """Emit a compliant circuit on a line, then insert SWAP(0, 1) per label."""
    state = make_state(circuit, linear_map(circuit.num_qubits), annotate=False)
    state.drain_front()
    for label in labels:
        state.insert_swap(SwapCandidate((0, 1), label=label))
    return state


def live_gates(state):
    return [op.gate for op in state.ops if not op.deleted]


def assert_same_unitary(state, circuit, swaps):
    routed = Circuit(circuit.num_qubits, tuple(decompose_swaps(state.ops)))
    expect = circuit.with_gates(circuit.gates + (SWAP01,) * swaps)
    assert np.max(np.abs(circuit_unitary(routed) - circuit_unitary(expect))) < 1e-10


def test_insert_swap_moves_1q_exactly():
    circ = Circuit(2, (A0, cx(0, 1), A0))
    state = swap_after(circ, COMMUTE)
    moved = A0.remapped({0: 1})
    assert live_gates(state) == [A0, cx(0, 1), SWAP01, moved]
    assert [op.gate for op in state.wire_hist[0]] == [A0, cx(0, 1), SWAP01]
    assert [op.gate for op in state.wire_hist[1]] == [cx(0, 1), SWAP01, moved]
    assert_same_unitary(state, circ, 1)


def test_insert_swap_moves_both_wires():
    circ = Circuit(2, (cx(0, 1), A0, B1))
    state = swap_after(circ, COMMUTE)
    assert live_gates(state)[2:] == [A0.remapped({0: 1}), B1.remapped({1: 0})]
    assert_same_unitary(state, circ, 1)
    # a second SWAP moves the relocated ops back; no history keeps a moved op
    state.insert_swap(SwapCandidate((0, 1), label=COMMUTE))
    assert live_gates(state)[1:] == [SWAP01, SWAP01, A0, B1]
    assert all(not op.deleted for hist in state.wire_hist for op in hist)
    assert_same_unitary(state, circ, 2)


def test_insert_swap_nothing_to_move():
    circ = Circuit(2, (cx(0, 1),))
    state = swap_after(circ, COMMUTE)
    assert live_gates(state) == [cx(0, 1), SWAP01]
    assert [op.gate for op in state.wire_hist[0]] == [cx(0, 1), SWAP01]


def test_insert_swap_unlabeled_moves_nothing():
    circ = Circuit(2, (cx(0, 1), A0))
    state = swap_after(circ, DecompositionLabel.none())
    assert live_gates(state) == [cx(0, 1), A0, SWAP01]
    assert not any(op.deleted for op in state.ops)
    assert_same_unitary(state, circ, 1)


def test_full_pipeline_empty_circuit():
    res = full_pipeline(Circuit(2, ()), linear_map(2), RouterConfig())
    assert res.circuit.gates == ()
    assert res.stats["cnot_total"] == 0
    assert res.stats["swaps_inserted"] == 0


def test_fig1_micro_case_nassc_and_sabre():
    cmap = linear_map(3)
    nassc_adds, sabre_adds = [], []
    for seed in range(10):
        res = full_pipeline(FIG1, cmap, RouterConfig(algorithm=NASSC, seed=seed))
        nassc_adds.append(res.stats["cnot_add"])
        res = full_pipeline(FIG1, cmap, RouterConfig(algorithm=SABRE, seed=seed))
        sabre_adds.append(res.stats["cnot_add"])
    assert nassc_adds == [1] * 10
    assert set(sabre_adds) == {1, 3}


def test_pipeline_preserves_semantics_and_compliance():
    cmap = grid_map(2, 2)
    circ = Circuit(4, (cx(0, 3), crx(0.4, 1, 2), cx(0, 1), cx(2, 3), u3(2)))
    for alg in (SABRE, NASSC):
        for seed in (0, 1):
            res = full_pipeline(circ, cmap, RouterConfig(algorithm=alg, seed=seed))
            for g in res.circuit.gates:
                if g.num_qubits == 2:
                    assert cmap.has_edge(*g.qubits)
            assert equivalent_up_to_permutation(
                circ, res.circuit, res.final_mapping, res.initial_mapping
            )


def test_sabre_reduction_property():
    """NASSC with every optimization disabled replays SABRE exactly."""
    cmap = montreal_map()
    circ = optimize_circuit(
        Circuit(6, (cx(0, 5), cx(1, 4), cx(2, 3), cx(0, 3), cx(5, 2), cx(4, 0))),
        CompileMemo(),
    ).circuit
    padded = Circuit(27, circ.gates, 0)
    fwd = annotated(padded)
    dist = distance_matrix_for(cmap, RouterConfig())
    for seed in range(5):
        mapping = QubitMapping(list(np.random.default_rng(seed).permutation(27).astype(int)))
        runs = []
        for cfg in (
            RouterConfig(algorithm=SABRE, seed=seed),
            RouterConfig(algorithm=NASSC, b_2q=False, b_commute1=False,
                         b_commute2=False, seed=seed),
        ):
            out = route(fwd, CompileMemo(), cmap, dist, cfg, mapping.copy(),
                        np.random.default_rng([seed, 1]))
            runs.append([op.gate for op in out.ops if not op.deleted])
        assert runs[0] == runs[1]


def test_pipeline_deterministic():
    cmap = linear_map(5)
    circ = Circuit(5, (cx(0, 4), cx(1, 3), crx(0.2, 2, 0), cx(3, 0)))
    a = full_pipeline(circ, cmap, RouterConfig(algorithm=NASSC, seed=7))
    b = full_pipeline(circ, cmap, RouterConfig(algorithm=NASSC, seed=7))
    assert a.circuit.gates == b.circuit.gates
    assert a.final_mapping == b.final_mapping


def test_routed_gates_always_on_couplings():
    cmap = montreal_map()
    circ = Circuit(8, tuple(cx(i, (i + 3) % 8) for i in range(8)))
    for alg in (SABRE, NASSC):
        res = full_pipeline(circ, cmap, RouterConfig(algorithm=alg, seed=0))
        for g in res.circuit.gates:
            if g.num_qubits == 2 and g.is_unitary_gate():
                assert cmap.has_edge(*g.qubits)


def test_mid_circuit_measurement_rejected():
    circ = Circuit(
        2,
        (Gate(GateKind.MEASURE, (0,), clbit=0), cx(0, 1)),
        num_clbits=1,
    )
    with pytest.raises(RoutingError):
        full_pipeline(circ, linear_map(2), RouterConfig())


def test_measures_remap_to_final_layout():
    circ = Circuit(3, (cx(0, 2), Gate(GateKind.MEASURE, (2,), clbit=0)), num_clbits=1)
    res = full_pipeline(circ, linear_map(3), RouterConfig(algorithm=SABRE, seed=1))
    measure = [g for g in res.circuit.gates if g.kind is GateKind.MEASURE]
    assert len(measure) == 1
    assert measure[0].qubits[0] == res.final_mapping[2]


# -- optimization passes around routing -----------------------------------------


def test_resynthesize_blocks_reduces_and_preserves(rng):
    gates = []
    for _ in range(6):
        gates.append(cx(0, 1))
        gates.append(Gate(GateKind.U3, (0,), tuple(rng.uniform(-2, 2, 3))))
    circ = Circuit(2, tuple(gates))
    out = resynthesize_blocks(build_dag(circ), CompileMemo()).circuit
    assert metrics(out)["cnot_count"] <= 3
    assert phase_distance(circuit_unitary(out), circuit_unitary(circ)) < 1e-8


def test_resynthesize_keeps_minimal_blocks_untouched():
    # a bare 3-CX ladder is already minimal: orientation must survive
    ladder = (cx(1, 0), cx(0, 1), cx(1, 0))
    out = resynthesize_blocks(build_dag(Circuit(2, ladder)), CompileMemo()).circuit
    assert out.gates == ladder


def test_resynthesize_converts_foreign_gates():
    circ = Circuit(2, (crx(0.7, 0, 1),))
    out = resynthesize_blocks(build_dag(circ), CompileMemo()).circuit
    assert all(g.kind in (GateKind.CX, GateKind.U3) for g in out.gates)
    assert phase_distance(circuit_unitary(out), circuit_unitary(circ)) < 1e-8


def test_optimize_circuit_reaches_fixpoint(rng):
    gates = []
    for _ in range(20):
        a, b = (int(x) for x in rng.choice(3, size=2, replace=False))
        gates.append(cx(a, b))
    circ = Circuit(3, tuple(gates))
    once = optimize_circuit(circ, CompileMemo()).circuit
    again = optimize_circuit(once, CompileMemo()).circuit
    assert once.gates == again.gates
    assert phase_distance(circuit_unitary(once), circuit_unitary(circ)) < 1e-8


# -- annotations handed from pre-optimization to the router ---------------------


def random_annotated_circuit(rng, n, count):
    """CX, CZ and CRX among H, RZ and u3: blocks of every CNOT count and
    commute sets of every kind."""
    gates = []
    for _ in range(count):
        kind = [GateKind.CX, GateKind.CZ, GateKind.CRX, GateKind.H, GateKind.RZ,
                GateKind.U3][int(rng.integers(6))]
        if kind in (GateKind.CX, GateKind.CZ, GateKind.CRX):
            qubits = tuple(int(q) for q in rng.choice(n, 2, replace=False))
        else:
            qubits = (int(rng.integers(n)),)
        arity = {GateKind.RZ: 1, GateKind.U3: 3, GateKind.CRX: 1}.get(kind, 0)
        gates.append(Gate(kind, qubits, tuple(rng.uniform(-math.pi, math.pi, arity))))
    return Circuit(n, tuple(gates))


def toggling(monkeypatch, name="merge_1q_runs") -> list:
    """Make every optimization loop stop at its round cap: each round's
    output of the pass `name` gets a barrier on qubit 0 appended, or removed
    if it ends with one, so no round returns the gates it started from.
    The cap is an even round count, so the loop ends with the gates it would
    have converged to.  Returns the list of rounds run."""
    run = getattr(routing, name)
    rounds = []

    def toggles(dag, memo):
        rounds.append(dag)
        out = run(dag, memo)
        last = out.gates[-1].kind is GateKind.BARRIER
        return out.with_gates(out.gates[:-1] if last else
                              out.gates + (Gate(GateKind.BARRIER, (0,)),))

    monkeypatch.setattr(routing, name, toggles)
    return rounds


def route_nassc(dag, memo):
    """Route `dag` with the NASSC predictors on a 6-qubit grid."""
    cmap, cfg = grid_map(2, 3), RouterConfig(algorithm=NASSC)
    return route(dag, memo, cmap, distance_matrix_for(cmap, cfg), cfg,
                 QubitMapping(list(range(6))), np.random.default_rng(0))


def assert_held_annotations_are_fresh(dag):
    """The blocks and commute sets `dag` holds equal those computed afresh
    from its gates; returns the reference."""
    ref = annotate_eagerly(dag.circuit, forgetful())
    if dag.blocks is not None:
        assert (dag.blocks, dag.block_id) == (ref.blocks, ref.block_id)
    if dag.commute_set is not None:
        assert dag.commute_set == ref.commute_set
    return ref


@pytest.mark.parametrize("seed", range(4))
def test_annotations_on_demand_equal_eager_ones(monkeypatch, seed):
    """What the router analyses itself equals what is computed afresh: the
    blocks and commute sets of the reversed gates, which reach it
    unanalysed, and of the forward DAG when pre-optimization stops at its
    round cap, whatever annotations that DAG holds then (none, or only the
    commute sets when the cap's last resynthesis changed gates).  A SABRE
    route analyses nothing."""
    rng = np.random.default_rng([seed, 17])
    circ = random_annotated_circuit(rng, 6, 120)
    memo = CompileMemo()
    logical = optimize_circuit(circ, memo).circuit
    reverse = build_dag(logical.with_gates(tuple(reversed(logical.gates))))
    cmap, cfg = grid_map(2, 3), RouterConfig(algorithm=SABRE)
    route(reverse, memo, cmap, distance_matrix_for(cmap, cfg), cfg,
          QubitMapping(list(range(6))), np.random.default_rng(0))
    assert reverse.blocks is None and reverse.block_id is None and reverse.commute_set is None
    capped = []
    for name in ("merge_1q_runs", "resynthesize_blocks"):
        rounds = toggling(monkeypatch, name)
        capped.append(optimize_circuit(circ, memo))
        monkeypatch.undo()
        assert len(rounds) == 10
    assert capped[0].commute_set is None and capped[1].commute_set is not None
    assert capped[0].blocks is None and capped[1].blocks is None
    for dag in [reverse] + capped:
        ref = assert_held_annotations_are_fresh(dag)
        route_nassc(dag, memo)
        assert dag.blocks and dag.commute_set
        assert_same_annotations(dag, memo, ref)


@pytest.mark.parametrize("seed", range(4))
def test_forward_dag_adopts_what_pre_optimization_analysed(seed):
    """Pre-optimization's last round analyses the blocks and commute sets
    of the DAG ``optimize_circuit`` returns; they equal annotations computed
    afresh, and the router routes on them as they are."""
    rng = np.random.default_rng([seed, 31])
    memo = CompileMemo()
    dag = optimize_circuit(random_annotated_circuit(rng, 6, 120), memo)
    blocks, commute_set = dag.blocks, dag.commute_set
    assert blocks is not None and commute_set is not None
    ref = assert_held_annotations_are_fresh(dag)
    route_nassc(dag, memo)
    assert dag.blocks is blocks and dag.commute_set is commute_set  # adopted, not computed
    assert_same_annotations(dag, memo, ref)


def test_without_a_fixpoint_the_router_annotates_on_demand(monkeypatch):
    """When the optimization loops stop at their round cap, or their last
    round returns the same gates in another DAG, the DAG the router gets
    holds fewer annotations; the router fills them in and routes byte for
    byte as before."""
    circ = random_annotated_circuit(np.random.default_rng(11), 6, 100)
    cfg = RouterConfig(algorithm=NASSC, seed=3)
    want = full_pipeline(circ, grid_map(2, 3), cfg)
    merge = routing.merge_1q_runs

    def copies(dag, memo):  # the same gates in another DAG
        merged = merge(dag, memo)
        return merged.with_gates(merged.gates)

    monkeypatch.setattr(routing, "merge_1q_runs", copies)
    assert optimize_circuit(circ, CompileMemo()).blocks is None
    got = full_pipeline(circ, grid_map(2, 3), cfg)
    assert got.circuit == want.circuit
    assert (got.initial_mapping, got.final_mapping) == (want.initial_mapping, want.final_mapping)

    monkeypatch.undo()
    rounds = toggling(monkeypatch)
    got = full_pipeline(circ, grid_map(2, 3), cfg)
    assert len(rounds) == 20  # both loops ran to the cap
    assert got.circuit == want.circuit
    assert (got.initial_mapping, got.final_mapping) == (want.initial_mapping, want.final_mapping)
    assert got.stats | {"wall_time_s": 0} == want.stats | {"wall_time_s": 0}


def annotation_calls(monkeypatch) -> list:
    """Records (name, whether it ran while routing) for every block,
    block-cost and commutation analysis and every ``min_cnot_count`` of a
    compile."""
    calls, routing_now = [], []

    def spy(owner, name):
        fn = getattr(owner, name)

        def recorded(*args):
            calls.append((name, bool(routing_now)))
            return fn(*args)

        monkeypatch.setattr(owner, name, recorded)

    def routing_stage(name):
        fn = getattr(routing, name)

        def staged(*args):
            routing_now.append(name)
            try:
                return fn(*args)
            finally:
                routing_now.pop()

        monkeypatch.setattr(routing, name, staged)

    for name in ("collect_blocks", "commutation_analysis", "min_cnot_count"):
        spy(routing, name)
    for name in ("annotate_block_costs", "min_cnot_count"):
        spy(synthesis, name)
    spy(commutation, "commutation_analysis")
    routing_stage("initial_mapping")
    routing_stage("route")
    return calls


def test_sabre_compile_computes_no_routing_annotation(monkeypatch):
    circ = random_annotated_circuit(np.random.default_rng(5), 6, 80)
    calls = annotation_calls(monkeypatch)
    full_pipeline(circ, grid_map(2, 3), RouterConfig(algorithm=SABRE))
    assert calls  # the optimization passes ran
    assert not [c for c in calls if c[1]]
    calls.clear()
    full_pipeline(circ, grid_map(2, 3), RouterConfig(algorithm=NASSC))
    while_routing = [name for name, routing_now in calls if routing_now]
    assert set(while_routing) == {"collect_blocks", "annotate_block_costs",
                                  "commutation_analysis", "min_cnot_count"}
    # the forward DAG holds the blocks and commute sets pre-optimization's
    # last round analysed, so each is computed once, on the reverse DAG
    assert while_routing.count("collect_blocks") == 1
    assert while_routing.count("commutation_analysis") == 1


def test_compiles_count_no_single_cnot_block_numerically(monkeypatch):
    """Each matrix ``min_cnot_count`` classifies (one by one, or row by row
    of a stack) is the unitary of a block looked up with ``block_results``,
    or that unitary with a SWAP appended, bit for bit; a spy on both shows
    that neither router's compile classifies a block whose one two-qubit
    gate is a CX or CZ, but both still classify a lone CRX, whose CNOT
    count depends on its angle.  A matrix that blocks of different kinds
    share is not attributed: a CX block with a SWAP appended equals that
    block followed by the SWAP's three CNOTs, bit for bit."""
    kinds_of, counted, looked_up = {}, [], []

    def block_results(fn):
        def recorded(memo, gates, pair):
            kinds = tuple(g.kind for g in gates if g.num_qubits == 2)
            looked_up.append(kinds)
            u = pair_unitary(gates, pair)
            for m in (u, SWAP_MATRIX @ u):
                kinds_of.setdefault(m.tobytes(), set()).add(kinds)
            return fn(memo, gates, pair)
        return recorded

    def min_cnot_count(fn):
        def recorded(u):
            for m in (u if u.ndim == 3 else [u]):
                kinds = kinds_of.get(np.ascontiguousarray(m).tobytes(), set())
                if len(kinds) == 1:
                    counted.extend(kinds)
            return fn(u)
        return recorded

    for owner in (routing, synthesis):
        monkeypatch.setattr(owner, "block_results", block_results(owner.block_results))
        monkeypatch.setattr(owner, "min_cnot_count", min_cnot_count(owner.min_cnot_count))
    circ = random_annotated_circuit(np.random.default_rng(7), 6, 120)
    single = {(GateKind.CX,), (GateKind.CZ,)}
    for algorithm in (SABRE, NASSC):
        counted.clear()
        looked_up.clear()
        full_pipeline(circ, grid_map(2, 3), RouterConfig(algorithm=algorithm))
        assert single <= set(looked_up)
        assert (GateKind.CRX,) in counted
        assert not single & set(counted)
