"""Layered SWAP-search routing: distance-only baseline and the
optimization-aware variant.

Both routers run the same layered loop: drain executable front gates, then
score every SWAP incident to an unsatisfied front gate and apply the argmin.
The baseline scores a candidate by post-SWAP distances of the front layer
plus a weighted extended-layer lookahead.  The optimization-aware router
additionally subtracts the CNOTs the candidate SWAP is predicted to save via
two-qubit block re-synthesis and the two commutation cancellations, and tags
such SWAPs with the decomposition orientation those cancellations need.

Distances are scored relatively, as in LightSABRE, in one pass per
iteration (``_score_edges``).  Each layer's gates are mapped to physical
pairs (pa, pb, distance) and summed in node order.  The pairs go into two
per-qubit tables that ``_RouteState`` allocates once per ``route`` call and
that are all None between passes: ``front_on[p]`` holds the one front pair
on qubit p, since a drained front is qubit-disjoint (two gates on one wire
are ordered in the DAG), and ``ext_on[p]`` the list of extended pairs on p.
A candidate SWAP(u, v) then costs only the change on the gates that touch u
or v: the change starts at 0.0, adds the pairs on u in layer order, then
those on v that are not on u, each read as ``dist[new_a][new_b]`` in the
gate's own qubit order (noise distances are not bit-symmetric).  The cost
is ``(3*(total + change) - predicted savings) / front size`` plus the
weight times the extended layer's ``(total + change) / size``.  Hop
distances are integers, so these sums equal the direct ones exactly;
noise-aware float distances may differ in the last bits.  The extended
layer depends only on the DAG and the unsatisfied front, so it is
recomputed only when that front changes.

Each iteration otherwise redoes only what the last SWAP changed, as in
LightSABRE: a drain re-checks only the front gates on the SWAP's two qubits
and, sweep by sweep, the gates just made ready; a candidate's predicted
savings are recomputed only when one of its two wires changed.

The forward pass routes on the DAG pre-optimization returns, with the
blocks and commute sets its last round analysed; ``route`` analyses only
what its predictors read (blocks for ``predict_c2q``, commute sets for
``predict_ccommute1``) and the DAG lacks, so the baseline analyses nothing.
Block CNOT counts are read from the compile memo, which the router takes as
an argument like every pass, and classified when a candidate first needs them.
"""

from __future__ import annotations

import math
import time
from bisect import insort
from dataclasses import dataclass, field, replace

import numpy as np

from .circuit import Circuit, metrics
from .commutation import (
    DecompositionLabel,
    commutation_analysis,
    commutative_cancellation,
    last_non_1q,
    predict_ccommute1,
    predict_ccommute2,
)
from .dag import CircuitDag, build_dag
from .gates import Gate, GateKind
from .memo import CompileMemo
from .synthesis import (
    annotate_block_costs,  # not called here: perfbench/tracer.py rebinds this name
    block_results,
    block_unitary,
    collect_blocks,
    kak_synthesize,
    merge_1q_runs,
    min_cnot_count,
    predict_c2q,
)
from .topology import CouplingMap, NoiseProfile, all_pairs_distance, noise_distance

SABRE = "sabre"
NASSC = "nassc"

# Shared default: labels are frozen, so one instance serves every op.
_NO_LABEL = DecompositionLabel.none()

# Equal-cost candidates favor certain commute cancellations over speculative
# block merges; the nudge is far below any real cost difference.
_COMMUTE_TIEBREAK = 1e-9


class RoutingError(RuntimeError):
    pass


class TooFewPhysicalQubits(RoutingError):
    pass


@dataclass(frozen=True)
class RouterConfig:
    algorithm: str = NASSC
    extended_size: int = 20
    extended_weight: float = 0.5
    b_2q: bool = True
    b_commute1: bool = True
    b_commute2: bool = True
    seed: int = 0
    traversals: int = 3
    noise_profile: NoiseProfile | None = None  # for noise-aware distances

    def __post_init__(self):
        if self.algorithm not in (SABRE, NASSC):
            raise ValueError(f"unknown algorithm '{self.algorithm}'")
        # numpy seeds must be nonnegative; the final routing pass is one of
        # the traversals
        for name, least in (("extended_size", 0), ("seed", 0), ("traversals", 1)):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, int) or value < least:
                raise ValueError(f"{name} must be an integer >= {least}, got {value!r}")
        weight = self.extended_weight
        if (isinstance(weight, bool) or not isinstance(weight, (int, float))
                or not math.isfinite(weight) or weight < 0):
            # a NaN weight would leave every candidate's cost NaN
            raise ValueError(f"extended_weight must be finite and nonnegative, got {weight!r}")
        # a truthy string such as "false" would switch a predictor on
        for name in ("b_2q", "b_commute1", "b_commute2"):
            value = getattr(self, name)
            if not isinstance(value, bool):
                raise ValueError(f"{name} must be true or false, got {value!r}")
        if self.noise_profile is not None and not isinstance(self.noise_profile, NoiseProfile):
            raise ValueError(f"noise_profile must be a NoiseProfile, got {self.noise_profile!r}")

    def flags(self) -> tuple[bool, bool, bool]:
        if self.algorithm == SABRE:
            return (False, False, False)
        return (self.b_2q, self.b_commute1, self.b_commute2)


@dataclass
class QubitMapping:
    log_to_phys: list[int]
    phys_to_log: list[int] = field(default_factory=list)

    def __post_init__(self):
        n = len(self.log_to_phys)
        if sorted(self.log_to_phys) != list(range(n)):
            raise ValueError("mapping must be a bijection")
        if not self.phys_to_log:
            self.phys_to_log = [0] * n
            for l, p in enumerate(self.log_to_phys):
                self.phys_to_log[p] = l

    def copy(self) -> "QubitMapping":
        return QubitMapping(list(self.log_to_phys), list(self.phys_to_log))

    def swap_physical(self, u: int, v: int) -> None:
        lu, lv = self.phys_to_log[u], self.phys_to_log[v]
        self.phys_to_log[u], self.phys_to_log[v] = lv, lu
        self.log_to_phys[lu], self.log_to_phys[lv] = v, u


@dataclass
class SwapCandidate:
    edge: tuple[int, int]
    c2q: int = 0
    ccommute1: int = 0
    ccommute2: int = 0
    label: DecompositionLabel = _NO_LABEL
    prev_swap_entry: object | None = None
    cost: float = 0.0


@dataclass(eq=False)
class RoutedOp:
    gate: Gate
    node_id: int | None
    is_swap: bool = False
    label: DecompositionLabel = _NO_LABEL
    deleted: bool = False
    seq: int = -1


@dataclass
class RouteOutcome:
    ops: list[RoutedOp]
    final_mapping: QubitMapping
    swaps_inserted: int = 0
    swaps_opt_2q: int = 0
    swaps_opt_commute: int = 0

    def physical_gates(self) -> list[Gate]:
        return [op.gate for op in self.ops if not op.deleted]


@dataclass
class RoutingResult:
    circuit: Circuit
    final_mapping: list[int]
    initial_mapping: list[int]
    stats: dict


class _RouteState:
    """Mutable routing state: emitted ops, per-wire histories (live ops only;
    1q ops a SWAP moves leave their wire's history), the front layer sorted
    by node id (source order, which is topological), and each coupling
    edge's cost predictions.

    A physical wire's version is bumped whenever its history or the logical
    qubit on it changes; an edge's predictions read nothing else (beyond the
    fixed DAG annotations), so they stay valid while both versions hold.
    """

    def __init__(self, dag: CircuitDag, memo: CompileMemo, cmap: CouplingMap,
                 mapping: QubitMapping, flags: tuple[bool, bool, bool] = (False, False, False)):
        self.dag = dag
        self.memo = memo
        self.cmap = cmap
        self.mapping = mapping
        self.flags = flags
        n = cmap.num_physical_qubits
        self.node_qubits = [gate.qubits for gate in dag.gates]
        # gates that must sit on a coupling to run
        self.needs_edge = [
            gate.num_qubits == 2 and gate.is_unitary_gate() for gate in dag.gates
        ]
        self.successors = [dag.successors(nid) for nid in dag.order]
        # edge ids follow the sorted edge list, so sorted ids are sorted edges
        self.edges = cmap.sorted_edges()
        self.incident: list[list[int]] = [[] for _ in range(n)]
        for i, edge in enumerate(self.edges):
            for q in edge:
                self.incident[q].append(i)
        # _score_edges's per-qubit layer tables, all None between its calls
        self.front_on: list[tuple[int, int, float] | None] = [None] * n
        self.ext_on: list[list[tuple[int, int, float]] | None] = [None] * n
        self.ops: list[RoutedOp] = []
        self.wire_hist: list[list[RoutedOp]] = [[] for _ in range(n)]
        self.version = [0] * n
        # edge -> (version of u, version of v, predictions)
        self.predictions: dict[tuple[int, int], tuple] = {}
        self.pending_preds = [0] * len(dag.gates)
        self.front: list[int] = []
        for nid in dag.order:
            npred = len(dag.predecessors(nid))
            self.pending_preds[nid] = npred
            if npred == 0:
                self.front.append(nid)

    def executable(self, nid: int) -> bool:
        if not self.needs_edge[nid]:
            return True
        qa, qb = self.node_qubits[nid]
        l2p = self.mapping.log_to_phys
        return self.cmap.has_edge(l2p[qa], l2p[qb])

    def emit_node(self, nid: int) -> list[int]:
        """Emit a front gate; returns the successors it made ready."""
        phys = self.dag.gates[nid].remapped(self.mapping.log_to_phys)
        op = RoutedOp(phys, nid, seq=len(self.ops))
        self.ops.append(op)
        for q in phys.qubits:
            self.wire_hist[q].append(op)
            self.version[q] += 1
        self.front.remove(nid)
        ready = []
        for succ in self.successors[nid]:
            self.pending_preds[succ] -= 1
            if self.pending_preds[succ] == 0:
                insort(self.front, succ)
                ready.append(succ)
        return ready

    def drain_front(self, moved: tuple[int, ...] | None = None) -> None:
        """Emit executable front gates until none is left.

        ``moved`` names the physical qubits whose logical qubit changed since
        the front was last drained: only front gates on them can have become
        executable (None checks the whole front).  The layout is fixed during
        a drain, so each later sweep checks only the gates the previous sweep
        made ready, in node order, as a full re-sweep would.
        """
        if moved is None:
            sweep = list(self.front)
        else:
            p2l = self.mapping.phys_to_log
            logical = {p2l[p] for p in moved}
            sweep = [nid for nid in self.front
                     if not logical.isdisjoint(self.node_qubits[nid])]
        while sweep:
            ready: list[int] = []
            for nid in sweep:
                if self.executable(nid):
                    ready += self.emit_node(nid)
            ready.sort()
            sweep = ready

    def insert_swap(self, cand: SwapCandidate) -> None:
        u, v = cand.edge
        label = cand.label
        moved: list[RoutedOp] = []
        if label.rationale != "none":
            for wire in (u, v):
                hist = self.wire_hist[wire]
                start = last_non_1q(hist) + 1
                moved += hist[start:]
                del hist[start:]
            for op in moved:
                op.deleted = True
            if cand.prev_swap_entry is not None:
                cand.prev_swap_entry.label = DecompositionLabel(
                    label.control_phys, "commute2"
                )
        op = RoutedOp(Gate(GateKind.SWAP, (u, v)), None, is_swap=True, label=label,
                      seq=len(self.ops))
        self.ops.append(op)
        self.wire_hist[u].append(op)
        self.wire_hist[v].append(op)
        # the SWAP conjugates a preceding 1q gate onto the other wire
        other = {u: v, v: u}
        for old in sorted(moved, key=lambda o: o.seq):
            q = old.gate.qubits[0]
            relocated = RoutedOp(old.gate.remapped({q: other[q]}), old.node_id,
                                 seq=len(self.ops))
            self.ops.append(relocated)
            self.wire_hist[other[q]].append(relocated)
        self.mapping.swap_physical(u, v)
        self.version[u] += 1
        self.version[v] += 1

    def predict(self, u: int, v: int) -> tuple:
        """(c2q, ccommute1, ccommute2, label, prev_swap_entry) of SWAP(u, v),
        recomputed only when a wire of the edge changed since the last call."""
        version = self.version
        entry = self.predictions.get((u, v))
        if entry is not None and entry[0] == version[u] and entry[1] == version[v]:
            return entry[2]
        b2q, bc1, bc2 = self.flags
        hist_u, hist_v = self.wire_hist[u], self.wire_hist[v]
        c2q = ccommute1 = ccommute2 = 0
        label, prev = _NO_LABEL, None
        # predictors are looked up at call time: tracers rebind them here
        if b2q:
            pred_u = hist_u[-1].node_id if hist_u else None
            pred_v = hist_v[-1].node_id if hist_v else None
            c2q = predict_c2q(self.dag, self.memo, pred_u, pred_v)
        if bc1:
            lu, lv = self.mapping.phys_to_log[u], self.mapping.phys_to_log[v]
            value, found = predict_ccommute1(self.dag, hist_u, hist_v, lu, lv, u, v)
            if value:
                ccommute1, label = value, found
        if bc2 and label.rationale == "none":
            value, found, swap_entry = predict_ccommute2(self.memo, hist_u, hist_v, u, v)
            if value:
                ccommute2, label, prev = value, found, swap_entry
        pred = (c2q, ccommute1, ccommute2, label, prev)
        self.predictions[(u, v)] = (version[u], version[v], pred)
        return pred

    def extended_layer(self, front_2q: list[int], cap: int) -> list[int]:
        """Closest two-qubit successors of the front, in node order."""
        if cap <= 0:
            return []
        seen = set(front_2q)
        frontier = list(front_2q)
        out: list[int] = []
        while frontier and len(out) < cap:
            nxt: list[int] = []
            for nid in frontier:
                for succ in self.successors[nid]:
                    if succ in seen:
                        continue
                    seen.add(succ)
                    nxt.append(succ)
            nxt.sort()
            for nid in nxt:
                if self.needs_edge[nid]:
                    out.append(nid)
                    if len(out) == cap:
                        break
            frontier = nxt
        return out


def enumerate_candidates(state: _RouteState, front_2q: list[int]) -> list[tuple[int, int]]:
    """Coupling edges incident to a physical qubit of an unsatisfied front gate."""
    if not front_2q:
        raise RoutingError("no unsatisfied front gate to route")
    l2p = state.mapping.log_to_phys
    incident = state.incident
    ids = {i for nid in front_2q for q in state.node_qubits[nid] for i in incident[l2p[q]]}
    edges = state.edges
    return [edges[i] for i in sorted(ids)]


def _score_edges(
    state: _RouteState,
    edges: list[tuple[int, int]],
    front_2q: list[int],
    extended: list[int],
    rows: list[list[float]],
    cfg: RouterConfig,
) -> list[float]:
    """Cost of a SWAP on each edge: three CNOTs per unit of front distance
    after it, minus the CNOTs later passes are predicted to save, per front
    gate; plus the weighted mean extended-layer distance.  Commute
    cancellations win exact ties by a nudge.

    Fills the state's per-qubit layer tables (see the module docstring) and
    sets them back to None before returning.
    """
    l2p = state.mapping.log_to_phys
    node_qubits = state.node_qubits
    front_on, ext_on = state.front_on, state.ext_on
    total = 0.0
    for nid in front_2q:
        qa, qb = node_qubits[nid]
        pa, pb = l2p[qa], l2p[qb]
        d = rows[pa][pb]
        total += d
        front_on[pa] = front_on[pb] = (pa, pb, d)
    etotal = 0.0
    ext_qubits: list[int] = []
    for nid in extended:
        qa, qb = node_qubits[nid]
        pa, pb = l2p[qa], l2p[qb]
        d = rows[pa][pb]
        etotal += d
        pair = (pa, pb, d)
        for p in (pa, pb):
            if ext_on[p] is None:
                ext_on[p] = [pair]
                ext_qubits.append(p)
            else:
                ext_on[p].append(pair)

    n_front = len(front_2q)
    n_ext = len(extended)
    weight = cfg.extended_weight
    predicts = any(state.flags)
    predictions, version = state.predictions, state.version
    costs = []
    for edge in edges:
        u, v = edge
        reduction = commute = 0
        if predicts:
            entry = predictions.get(edge)
            if entry is not None and entry[0] == version[u] and entry[1] == version[v]:
                c2q, ccommute1, ccommute2, _, _ = entry[2]
            else:
                c2q, ccommute1, ccommute2, _, _ = state.predict(u, v)
            reduction = c2q + ccommute1 + ccommute2
            commute = ccommute1 + ccommute2
        # a gate on both u and v is the one front pair on u: counted with u
        delta = 0.0
        on_u = front_on[u]
        if on_u is not None:
            pa, pb, d = on_u
            delta += rows[v if pa == u else u if pa == v else pa][
                v if pb == u else u if pb == v else pb] - d
        on_v = front_on[v]
        if on_v is not None and on_v is not on_u:
            pa, pb, d = on_v
            delta += rows[u if pa == v else pa][u if pb == v else pb] - d
        basic = (3.0 * (total + delta) - reduction) / n_front
        lookahead = 0.0
        if n_ext:
            delta = 0.0
            pairs = ext_on[u]
            if pairs is not None:
                for pa, pb, d in pairs:
                    delta += rows[v if pa == u else u if pa == v else pa][
                        v if pb == u else u if pb == v else pb] - d
            pairs = ext_on[v]
            if pairs is not None:
                for pa, pb, d in pairs:
                    if pa != u and pb != u:
                        delta += rows[u if pa == v else pa][u if pb == v else pb] - d
            lookahead = weight * (etotal + delta) / n_ext
        costs.append(basic + lookahead - _COMMUTE_TIEBREAK * commute)

    for nid in front_2q:
        for q in node_qubits[nid]:
            front_on[l2p[q]] = None
    for p in ext_qubits:
        ext_on[p] = None
    return costs


def route(
    dag: CircuitDag,
    memo: CompileMemo,
    cmap: CouplingMap,
    dist: np.ndarray,
    cfg: RouterConfig,
    mapping: QubitMapping,
    rng: np.random.Generator,
) -> RouteOutcome:
    """Run the layered loop until every gate is emitted on coupled qubits,
    after analysing what the configured predictors read and `dag` lacks."""
    b2q, bc1, _ = flags = cfg.flags()
    if b2q and dag.blocks is None:
        collect_blocks(dag)
    if bc1 and dag.commute_set is None:
        commutation_analysis(dag, memo)
    state = _RouteState(dag, memo, cmap, mapping, flags)
    rows = dist.tolist()
    outcome = RouteOutcome([], mapping)
    max_iter = 10 * cmap.num_physical_qubits * max(1, len(dag.order))
    stall_cap = max(8, 2 * cmap.num_physical_qubits)
    iterations = 0
    stall = 0
    moved: tuple[int, ...] | None = None
    front_before: list[int] | None = None
    extended: list[int] = []
    while True:
        emitted_before = len(state.ops)
        state.drain_front(moved)
        if not state.front:
            break
        stall = 0 if len(state.ops) > emitted_before else stall + 1
        iterations += 1
        if iterations > max_iter:
            raise RoutingError(
                f"no progress after {max_iter} SWAP insertions; "
                "routing appears to oscillate"
            )
        # drained: every front gate is a two-qubit gate off the coupling map
        front_2q = list(state.front)
        if stall > stall_cap:
            # cost-directed search is cycling through zero-progress SWAPs;
            # force the first front gate along a shortest path
            outcome.swaps_inserted += _greedy_resolve(state, front_2q[0], rows)
            stall = 0
            moved = None
            continue
        if front_2q != front_before:
            extended = state.extended_layer(front_2q, cfg.extended_size)
            front_before = front_2q
        edges = enumerate_candidates(state, front_2q)
        costs = _score_edges(state, edges, front_2q, extended, rows, cfg)
        best = min(costs)
        tied = [i for i, cost in enumerate(costs) if cost <= best + 1e-12]
        pick = tied[int(rng.integers(len(tied)))] if len(tied) > 1 else tied[0]
        choice = SwapCandidate(edges[pick], *state.predict(*edges[pick]), cost=costs[pick])
        state.insert_swap(choice)
        moved = choice.edge
        outcome.swaps_inserted += 1
        if choice.c2q > 0:
            outcome.swaps_opt_2q += 1
        if choice.label.rationale != "none":
            outcome.swaps_opt_commute += 1
    outcome.ops = state.ops
    outcome.final_mapping = state.mapping
    return outcome


def _greedy_resolve(state: _RouteState, nid: int, dist: list[list[float]]) -> int:
    """Walk one gate's first qubit along a shortest path until coupled."""
    inserted = 0
    while not state.executable(nid):
        pa, pb = (state.mapping.log_to_phys[q] for q in state.node_qubits[nid])
        step = min(
            (n for n in state.cmap.neighbors(pa) if dist[n][pb] < dist[pa][pb]),
        )
        state.insert_swap(SwapCandidate((pa, step) if pa < step else (step, pa)))
        inserted += 1
    return inserted


def initial_mapping(
    fwd_dag: CircuitDag,
    rev_dag: CircuitDag,
    memo: CompileMemo,
    cmap: CouplingMap,
    dist: np.ndarray,
    cfg: RouterConfig,
) -> QubitMapping:
    """Seeded random bijection refined by alternating forward/reverse routing
    passes; returns the mapping entering the final forward pass.

    Every refinement pass but the last routes with plain distance costs;
    the last one routes with ``cfg`` itself, so the layout it hands on
    depends on the configured algorithm.  Both routers start from the same
    layout for a given seed only when ``traversals`` is 1, which leaves no
    refinement pass.
    """
    n = cmap.num_physical_qubits
    rng = np.random.default_rng([cfg.seed, 0xA11])
    mapping = QubitMapping([int(p) for p in rng.permutation(n)])
    plain = replace(cfg, b_2q=False, b_commute1=False, b_commute2=False)
    passes = cfg.traversals - 1
    for i in range(passes):
        dag = fwd_dag if i % 2 == 0 else rev_dag
        pass_cfg = cfg if i == passes - 1 else plain
        outcome = route(dag, memo, cmap, dist, pass_cfg, mapping.copy(),
                        np.random.default_rng([cfg.seed, 0xB22, i]))
        mapping = outcome.final_mapping
    return mapping


def decompose_swaps(ops: list[RoutedOp]) -> list[Gate]:
    """Expand SWAPs into three CNOTs; a label fixes which qubit controls the
    outer CNOTs, unlabeled SWAPs default to control on the lower index."""
    gates: list[Gate] = []
    for op in ops:
        if op.deleted:
            continue
        if not op.is_swap:
            gates.append(op.gate)
            continue
        a, b = op.gate.qubits
        control = op.label.control_phys
        if control is None:
            control = min(a, b)
        target = b if control == a else a
        gates.append(Gate(GateKind.CX, (control, target)))
        gates.append(Gate(GateKind.CX, (target, control)))
        gates.append(Gate(GateKind.CX, (control, target)))
    return gates


# -- optimization passes around routing ----------------------------------------


def resynthesize_blocks(dag: CircuitDag, memo: CompileMemo) -> CircuitDag:
    """Rewrite each two-qubit block into its minimal-CNOT canonical form.

    A block is rewritten when it contains non-CX two-qubit gates (basis
    conversion) or when re-synthesis strictly reduces its CNOT count; blocks
    that are already minimal are left untouched so that a chosen SWAP
    decomposition orientation survives to the cancellation pass.  With no
    block rewritten, `dag` itself is returned.

    The numerics run once per pass, on stacks: one ``min_cnot_count`` over
    the pass's memo entries that lack a count, then one ``kak_synthesize``
    over those to rewrite that lack gates.  An entry's unitary is that of
    its first such block, which a pass taking one block at a time would
    compute it from (the key holds all ``pair_unitary`` reads, so res.cx is
    that unitary's count).
    """
    blocks = collect_blocks(dag)
    members = [[dag.gates[nid] for nid in blk.node_ids] for blk in blocks]
    results = [block_results(memo, gates, blk.qubit_pair)
               for blk, gates in zip(blocks, members)]
    unitaries: dict[int, np.ndarray] = {}

    def first_blocks(indices, missing) -> list[int]:
        """The first block of each entry that misses a result, each with
        its unitary in `unitaries`."""
        first: dict[int, int] = {}
        for i in indices:
            if missing(results[i]):
                first.setdefault(id(results[i]), i)
        for i in first.values():
            if i not in unitaries:
                unitaries[i] = block_unitary(blocks[i], dag, memo)
        return list(first.values())

    uncounted = first_blocks(range(len(blocks)), lambda res: res.cx is None)
    if uncounted:
        counts = min_cnot_count(np.stack([unitaries[i] for i in uncounted]))
        for i, count in zip(uncounted, counts.tolist()):
            results[i].cx = count
    rewrite = []
    for i, gates in enumerate(members):
        has_foreign = any(g.num_qubits == 2 and g.kind is not GateKind.CX for g in gates)
        if has_foreign or results[i].cx < sum(1 for g in gates if g.kind is GateKind.CX):
            rewrite.append(i)
    unsynthesized = first_blocks(rewrite, lambda res: res.gates is None)
    if unsynthesized:
        circuits = kak_synthesize(np.stack([unitaries[i] for i in unsynthesized]), (0, 1), 2,
                                  [results[i].cx for i in unsynthesized])
        for i, circ in zip(unsynthesized, circuits):
            results[i].gates = circ.gates
    rewritten: dict[int, list[Gate]] = {}
    drop: set[int] = set()
    for i in rewrite:
        blk = blocks[i]
        # Anchor the replacement at the first two-qubit member: leading 1q
        # members were collected before it but nothing else touches their
        # wire in between, so sliding them down to the anchor is sound.
        anchor = next(nid for nid in blk.node_ids if dag.gates[nid].num_qubits == 2)
        rewritten[anchor] = [g.remapped(blk.qubit_pair) for g in results[i].gates]
        drop.update(nid for nid in blk.node_ids if nid != anchor)
    if not rewritten:
        return dag
    out: list[Gate] = []
    for nid, gate in enumerate(dag.gates):
        if nid in rewritten:
            out.extend(rewritten[nid])
        elif nid not in drop:
            out.append(gate)
    return dag.with_gates(out)


def optimize_circuit(circuit: Circuit, memo: CompileMemo) -> CircuitDag:
    """Re-synthesis + commutative cancellation + 1q merging, threaded
    through one DAG, to a fixed point (at most 10 rounds); returns the last
    DAG.  A pass that changes gates builds a new DAG, so whatever blocks and
    commute sets that DAG holds are those of its own gates: all of them
    when the last round changed nothing."""
    dag = build_dag(circuit)
    for _ in range(10):
        start = dag
        dag = resynthesize_blocks(dag, memo)
        dag = commutative_cancellation(dag, memo)
        dag = merge_1q_runs(dag, memo)
        if dag.gates == start.gates:
            break
    return dag


def distance_matrix_for(cmap: CouplingMap, cfg: RouterConfig) -> np.ndarray:
    if cfg.noise_profile is not None:
        return noise_distance(cmap, cfg.noise_profile)
    return all_pairs_distance(cmap)


def full_pipeline(circuit: Circuit, cmap: CouplingMap, cfg: RouterConfig) -> RoutingResult:
    """Pre-optimize, map, route, decompose SWAPs, post-optimize, measure."""
    n = cmap.num_physical_qubits
    if circuit.num_qubits > n:
        raise TooFewPhysicalQubits(
            f"{circuit.num_qubits} logical qubits > {n} physical"
        )
    t0 = time.perf_counter()
    # block and commute results shared by every pass of this compile only
    memo = CompileMemo()
    body, measures = _split_final_measures(circuit)
    fwd_dag = optimize_circuit(body, memo)
    logical = fwd_dag.circuit
    base = metrics(logical)
    rev_dag = build_dag(logical.with_gates(tuple(reversed(logical.gates))))
    dist = distance_matrix_for(cmap, cfg)

    mapping = initial_mapping(fwd_dag, rev_dag, memo, cmap, dist, cfg)
    entry_mapping = list(mapping.log_to_phys)
    outcome = route(
        fwd_dag, memo, cmap, dist, cfg, mapping,
        np.random.default_rng([cfg.seed, 0xF1A1]),
    )
    routed = Circuit(n, tuple(decompose_swaps(outcome.ops)), circuit.num_clbits)
    routed = optimize_circuit(routed, memo).circuit
    _assert_compliant(routed, cmap)
    final = metrics(routed)
    final_log_to_phys = outcome.final_mapping.log_to_phys
    routed = routed.with_gates(
        tuple(routed.gates)
        + tuple(m.remapped(final_log_to_phys) for m in measures)
    )
    wall = time.perf_counter() - t0
    stats = {
        "swaps_inserted": outcome.swaps_inserted,
        "cnot_total": final["cnot_count"],
        "cnot_add": final["cnot_count"] - base["cnot_count"],
        "depth_total": final["depth"],
        "depth_add": final["depth"] - base["depth"],
        "cnot_total_orig": base["cnot_count"],
        "depth_total_orig": base["depth"],
        "swaps_opt_by_2q": outcome.swaps_opt_2q,
        "swaps_opt_by_commute": outcome.swaps_opt_commute,
        "wall_time_s": wall,
    }
    return RoutingResult(
        routed, list(outcome.final_mapping.log_to_phys), entry_mapping, stats
    )


def _split_final_measures(circuit: Circuit) -> tuple[Circuit, list[Gate]]:
    """Separate trailing measurements from the unitary body; they are routed
    implicitly by remapping onto the final layout.  Mid-circuit measurement
    is unsupported."""
    measured: set[int] = set()
    body: list[Gate] = []
    measures: list[Gate] = []
    for g in circuit.gates:
        if g.kind is GateKind.MEASURE:
            measured.add(g.qubits[0])
            measures.append(g)
            continue
        if g.kind is not GateKind.BARRIER and measured & set(g.qubits):
            raise RoutingError("mid-circuit measurement is not supported")
        if g.kind is GateKind.BARRIER and measured.issuperset(g.qubits):
            continue
        body.append(g)
    return circuit.with_gates(body), measures


def _assert_compliant(circuit: Circuit, cmap: CouplingMap) -> None:
    for g in circuit.gates:
        if g.num_qubits == 2 and g.is_unitary_gate() and not cmap.has_edge(*g.qubits):
            raise RoutingError(f"gate {g.kind.value}{g.qubits} is not on a coupling")
