"""The router's loop as it ran before it kept incremental state, and its
scorer as it ran before the per-qubit layer tables: references for tests.

``reference_route`` re-checks the whole front on every drain sweep, re-sorts
the front after every emitted gate, re-derives successor lists from the DAG,
and scores each candidate with ``score_candidate``, which calls the three
predictors afresh every time.  ``routing.route`` must give the same ops, final
mapping and SWAP counters for the same inputs and random generator.

``reference_score_edges`` scores candidates over ``Layer`` objects, one per
layer, each holding its distance sum and a dict of the pairs on each
physical qubit.  ``routing._score_edges`` must give the same costs, float for
float, with hop and with noise-aware distances.
"""

from __future__ import annotations

import numpy as np

from optswap.routing import (
    _COMMUTE_TIEBREAK,
    RouteOutcome,
    RoutedOp,
    RouterConfig,
    RoutingError,
    SwapCandidate,
    _greedy_resolve,
    _RouteState,
    enumerate_candidates,
    predict_c2q,
    predict_ccommute1,
    predict_ccommute2,
)


class Layer:
    """Two-qubit gates of one iteration as physical pairs under the current
    layout: their distance sum, and the pairs on each physical qubit."""

    def __init__(self, state: _RouteState, nids: list[int], dist: list[list[float]]):
        self.nids = nids
        self.dist = dist
        l2p = state.mapping.log_to_phys
        self.total = 0.0
        self.on: dict[int, list[tuple[int, int, float]]] = {}
        for nid in nids:
            qa, qb = state.node_qubits[nid]
            pa, pb = l2p[qa], l2p[qb]
            d = dist[pa][pb]
            self.total += d
            pair = (pa, pb, d)
            self.on.setdefault(pa, []).append(pair)
            self.on.setdefault(pb, []).append(pair)

    def sum_after_swap(self, u: int, v: int) -> float:
        """The layer's distance sum once SWAP(u, v) exchanges the two qubits;
        each moved gate's distance is read in its own qubit order."""
        dist = self.dist
        delta = 0.0
        for pa, pb, d in self.on.get(u, ()):
            na = v if pa == u else u if pa == v else pa
            nb = v if pb == u else u if pb == v else pb
            delta += dist[na][nb] - d
        for pa, pb, d in self.on.get(v, ()):
            if pa == u or pb == u:
                continue  # on both qubits: counted with u
            delta += dist[u if pa == v else pa][u if pb == v else pb] - d
        return self.total + delta


def reference_score_edges(
    state: _RouteState,
    edges: list[tuple[int, int]],
    front: Layer,
    extended: Layer,
    cfg: RouterConfig,
) -> list[float]:
    """Each edge's cost from the two layers, predictions through
    ``state.predict``."""
    n_front = len(front.nids)
    n_ext = len(extended.nids)
    weight = cfg.extended_weight
    predicts = any(state.flags)
    costs = []
    for u, v in edges:
        reduction = commute = 0
        if predicts:
            c2q, ccommute1, ccommute2, _, _ = state.predict(u, v)
            reduction = c2q + ccommute1 + ccommute2
            commute = ccommute1 + ccommute2
        basic = (3.0 * front.sum_after_swap(u, v) - reduction) / n_front
        lookahead = 0.0
        if n_ext:
            lookahead = weight * extended.sum_after_swap(u, v) / n_ext
        costs.append(basic + lookahead - _COMMUTE_TIEBREAK * commute)
    return costs


class ReferenceState(_RouteState):
    """The routing state with its drain, front upkeep and layer walk done
    from scratch; SWAP insertion is shared with the router."""

    def __init__(self, dag, cmap, mapping):
        super().__init__(dag, cmap, mapping)
        self.resolved_nodes: set[int] = set()

    def executable(self, nid: int) -> bool:
        gate = self.dag.gates[nid]
        if gate.num_qubits != 2 or not gate.is_unitary_gate():
            return True
        pa, pb = (self.mapping.log_to_phys[q] for q in gate.qubits)
        return self.cmap.has_edge(pa, pb)

    def emit_node(self, nid: int) -> None:
        gate = self.dag.gates[nid]
        phys = gate.remapped(self.mapping.log_to_phys)
        op = RoutedOp(phys, nid, seq=len(self.ops))
        self.ops.append(op)
        for q in phys.qubits:
            self.wire_hist[q].append(op)
        self.resolved_nodes.add(nid)
        self.front.remove(nid)
        for succ in self.dag.successors(nid):
            self.pending_preds[succ] -= 1
            if self.pending_preds[succ] == 0:
                self.front.append(succ)
        self.front.sort()

    def drain_front(self, moved=None) -> None:
        progressed = True
        while progressed:
            progressed = False
            for nid in list(self.front):
                if self.executable(nid):
                    self.emit_node(nid)
                    progressed = True

    def unsatisfied_front(self) -> list[int]:
        return [nid for nid in self.front if not self.executable(nid)]

    def extended_layer(self, front_2q: list[int], cap: int) -> list[int]:
        if cap <= 0:
            return []
        seen = set(front_2q)
        frontier = list(front_2q)
        out: list[int] = []
        while frontier and len(out) < cap:
            nxt: list[int] = []
            for nid in frontier:
                for succ in self.dag.successors(nid):
                    if succ in seen:
                        continue
                    seen.add(succ)
                    nxt.append(succ)
            nxt.sort()
            for nid in nxt:
                gate = self.dag.gates[nid]
                if gate.num_qubits == 2 and gate.is_unitary_gate():
                    out.append(nid)
                    if len(out) == cap:
                        break
            frontier = nxt
        return out


def score_candidate(
    state: _RouteState,
    edge: tuple[int, int],
    front: Layer,
    extended: Layer,
    cfg: RouterConfig,
) -> SwapCandidate:
    """One candidate's cost, with every prediction computed afresh."""
    u, v = edge
    b2q, bc1, bc2 = cfg.flags()
    cand = SwapCandidate(edge)
    mapping = state.mapping

    if b2q or bc1 or bc2:
        hist_u = state.wire_hist[u]
        hist_v = state.wire_hist[v]
        if b2q:
            pred_u = hist_u[-1].node_id if hist_u else None
            pred_v = hist_v[-1].node_id if hist_v else None
            cand.c2q = predict_c2q(state.dag, pred_u, pred_v)
        if bc1:
            lu, lv = mapping.phys_to_log[u], mapping.phys_to_log[v]
            value, label = predict_ccommute1(state.dag, hist_u, hist_v, lu, lv, u, v)
            if value:
                cand.ccommute1 = value
                cand.label = label
        if bc2 and cand.label.rationale == "none":
            value, label, prev = predict_ccommute2(state.dag, hist_u, hist_v, u, v)
            if value:
                cand.ccommute2 = value
                cand.label = label
                cand.prev_swap_entry = prev

    reduction = cand.c2q + cand.ccommute1 + cand.ccommute2
    basic = (3.0 * front.sum_after_swap(u, v) - reduction) / len(front.nids)
    lookahead = 0.0
    if extended.nids:
        lookahead = (cfg.extended_weight * extended.sum_after_swap(u, v)
                     / len(extended.nids))
    cand.cost = basic + lookahead - _COMMUTE_TIEBREAK * (cand.ccommute1 + cand.ccommute2)
    return cand


def reference_route(dag, cmap, dist: np.ndarray, cfg: RouterConfig, mapping,
                    rng: np.random.Generator) -> RouteOutcome:
    state = ReferenceState(dag, cmap, mapping)
    rows = dist.tolist()
    outcome = RouteOutcome([], mapping)
    max_iter = 10 * cmap.num_physical_qubits * max(1, len(dag.order))
    stall_cap = max(8, 2 * cmap.num_physical_qubits)
    iterations = 0
    stall = 0
    front_before: list[int] | None = None
    extended: list[int] = []
    while True:
        resolved_before = len(state.resolved_nodes)
        state.drain_front()
        if not state.front:
            break
        stall = 0 if len(state.resolved_nodes) > resolved_before else stall + 1
        iterations += 1
        if iterations > max_iter:
            raise RoutingError(f"no progress after {max_iter} SWAP insertions")
        front_2q = state.unsatisfied_front()
        if stall > stall_cap:
            outcome.swaps_inserted += _greedy_resolve(state, front_2q[0], rows)
            stall = 0
            continue
        if front_2q != front_before:
            extended = state.extended_layer(front_2q, cfg.extended_size)
            front_before = front_2q
        front_layer = Layer(state, front_2q, rows)
        ext_layer = Layer(state, extended, rows)
        candidates = [
            score_candidate(state, edge, front_layer, ext_layer, cfg)
            for edge in enumerate_candidates(state, front_2q)
        ]
        best = min(c.cost for c in candidates)
        tied = [c for c in candidates if c.cost <= best + 1e-12]
        choice = tied[int(rng.integers(len(tied)))] if len(tied) > 1 else tied[0]
        state.insert_swap(choice)
        outcome.swaps_inserted += 1
        if choice.c2q > 0:
            outcome.swaps_opt_2q += 1
        if choice.label.rationale != "none":
            outcome.swaps_opt_commute += 1
    outcome.ops = state.ops
    outcome.final_mapping = state.mapping
    return outcome
