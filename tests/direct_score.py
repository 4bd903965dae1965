"""The router's candidate cost summed directly: a reference for tests.

``direct_score`` re-sums the post-SWAP distance of every front and extended
gate for each candidate, the way the router scored candidates before it
switched to relative scoring.  The router's ``_score_edges`` must give
the same cost: exactly with integer hop distances, and up to float rounding
with noise-aware distances.
"""

from __future__ import annotations

import numpy as np

from optswap.routing import (
    _COMMUTE_TIEBREAK,
    RouterConfig,
    SwapCandidate,
    _RouteState,
    predict_c2q,
    predict_ccommute1,
    predict_ccommute2,
)


def direct_score(
    state: _RouteState,
    edge: tuple[int, int],
    front_2q: list[int],
    extended: list[int],
    dist: np.ndarray,
    cfg: RouterConfig,
) -> SwapCandidate:
    u, v = edge
    b2q, bc1, bc2 = cfg.flags()
    cand = SwapCandidate(edge)
    mapping = state.mapping

    def tentative(q: int) -> int:
        p = mapping.log_to_phys[q]
        if p == u:
            return v
        if p == v:
            return u
        return p

    front_sum = 0.0
    for nid in front_2q:
        qa, qb = state.dag.gates[nid].qubits
        front_sum += dist[tentative(qa), tentative(qb)]

    if b2q or bc1 or bc2:
        hist_u = state.wire_hist[u]
        hist_v = state.wire_hist[v]
        if b2q:
            pred_u = hist_u[-1].node_id if hist_u else None
            pred_v = hist_v[-1].node_id if hist_v else None
            cand.c2q = predict_c2q(state.dag, state.memo, pred_u, pred_v)
        if bc1:
            lu, lv = mapping.phys_to_log[u], mapping.phys_to_log[v]
            value, label = predict_ccommute1(state.dag, hist_u, hist_v, lu, lv, u, v)
            if value:
                cand.ccommute1 = value
                cand.label = label
        if bc2 and cand.label.rationale == "none":
            value, label, prev = predict_ccommute2(state.memo, hist_u, hist_v, u, v)
            if value:
                cand.ccommute2 = value
                cand.label = label
                cand.prev_swap_entry = prev

    reduction = cand.c2q + cand.ccommute1 + cand.ccommute2
    basic = (3.0 * front_sum - reduction) / len(front_2q)
    lookahead = 0.0
    if extended:
        ext_sum = 0.0
        for nid in extended:
            qa, qb = state.dag.gates[nid].qubits
            ext_sum += dist[tentative(qa), tentative(qb)]
        lookahead = cfg.extended_weight * ext_sum / len(extended)
    cand.cost = basic + lookahead - _COMMUTE_TIEBREAK * (cand.ccommute1 + cand.ccommute2)
    return cand
