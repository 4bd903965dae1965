"""Spans around the program's public functions, recorded from outside it.

Each wrapped function is rebound in the module that calls it (``routing``
imports ``commutative_cancellation`` and ``min_cnot_count`` by name, so those
are patched in ``routing`` as well as in their home modules).  Spans stay in
memory until the pass ends; ``write`` dumps them and ``summary`` turns them
into the per-layer metrics.
"""

from __future__ import annotations

import gzip
import json
import time
from collections import defaultdict

from optswap import commutation, dag, routing, synthesis

PIPELINE = "full_pipeline"
ANNOTATE = ("build_dag", "collect_blocks", "annotate_block_costs", "commutation_analysis")
PREDICT = ("predict_c2q", "predict_ccommute1", "predict_ccommute2")
DISTANCE = ("all_pairs_distance", "noise_distance")


def _len_gates(args, result):
    return len(result.gates)


def _len_result(args, result):
    return len(result)


def _cancelled(args, result):
    return [len(args[0].order), len(result.order)]


# (module whose global is rebound, attribute, size of the work done or None)
_FUNCTIONS = [
    (routing, "full_pipeline", None),
    (routing, "optimize_circuit", _len_gates),
    (routing, "resynthesize_blocks", None),
    (routing, "initial_mapping", None),
    (routing, "route", lambda args, result: len(result.physical_gates())),
    (routing, "enumerate_candidates", _len_result),
    (routing, "decompose_swaps", _len_result),
    (routing, "metrics", None),
    (routing, "all_pairs_distance", None),
    (routing, "noise_distance", None),
    (routing, "build_dag", None),
    (routing, "collect_blocks", _len_result),
    (routing, "annotate_block_costs", None),
    (routing, "commutation_analysis", None),
    (routing, "commutative_cancellation", _cancelled),
    (routing, "merge_1q_runs", None),
    (routing, "kak_synthesize", None),
    (routing, "min_cnot_count", None),
    (routing, "predict_c2q", None),
    (routing, "predict_ccommute1", None),
    (routing, "predict_ccommute2", None),
    (synthesis, "min_cnot_count", None),
    (commutation, "commutation_analysis", None),
    (commutation, "gates_commute", None),
]


# Fields of one span record; a list per span keeps the wrapper cheap.
NAME, PARENT, COMPILE, START, END, SIZE, CHILD_S = range(7)


class Tracer:
    """Records one span per call: name, parent span, compile id, start, end,
    size of the work done, and the time covered by child spans."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.compile_id = -1
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def _traced(self, fn, name: str, size):
        spans, stack, clock = self.spans, self._stack, self.clock

        def traced(*args, **kwargs):
            idx = len(spans)
            rec = [name, stack[-1] if stack else -1, self.compile_id, 0.0, 0.0, None, 0.0]
            spans.append(rec)
            stack.append(idx)
            rec[START] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[END] = end = clock()
                stack.pop()
                if rec[PARENT] >= 0:
                    spans[rec[PARENT]][CHILD_S] += end - rec[START]
            if size is not None:
                rec[SIZE] = size(args, result)
            return result

        return traced

    def _patch(self, owner, attr: str, replacement) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def install(self) -> None:
        for module, attr, size in _FUNCTIONS:
            fn = getattr(module, attr)
            self._patch(module, attr, self._traced(fn, fn.__name__, size))
        init = dag.CircuitDag.__init__
        self._patch(dag.CircuitDag, "__init__", self._traced(init, "CircuitDag", None))

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def write(self, path) -> None:
        """One JSON list per span: name, parent, compile id, start, end, size,
        self time (duration minus the time its child spans cover)."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for rec in self.spans:
                row = rec[:CHILD_S] + [rec[END] - rec[START] - rec[CHILD_S]]
                fh.write(json.dumps(row) + "\n")

    def summary(self) -> dict[str, float]:
        """Per-layer metrics; stage spans are classified by their position
        under each ``full_pipeline`` span."""
        spans = self.spans
        calls: dict[str, int] = defaultdict(int)
        total: dict[str, float] = defaultdict(float)
        children: dict[int, list[int]] = defaultdict(list)
        for idx, rec in enumerate(spans):
            calls[rec[NAME]] += 1
            total[rec[NAME]] += rec[END] - rec[START]
            if rec[PARENT] >= 0:
                children[rec[PARENT]].append(idx)

        stage: dict[str, float] = defaultdict(float)
        sizes: dict[str, int] = defaultdict(int)
        coverage = []
        postopt_spans = set()
        for idx, rec in enumerate(spans):
            if rec[NAME] != PIPELINE:
                continue
            duration = rec[END] - rec[START]
            coverage.append(rec[CHILD_S] / duration)
            stage["pipeline_self"] += duration - rec[CHILD_S]
            optimize = 0
            for child in children[idx]:
                crec = spans[child]
                cname, dur = crec[NAME], crec[END] - crec[START]
                if cname == "optimize_circuit":
                    key = "preopt" if optimize == 0 else "postopt"
                    optimize += 1
                    stage[key] += dur
                    sizes[key] += crec[SIZE]
                    if key == "postopt":
                        postopt_spans.add(child)
                elif cname in ANNOTATE:
                    stage["annotate"] += dur
                elif cname == "initial_mapping":
                    stage["layout"] += dur
                elif cname == "route":
                    stage["route"] += dur
                    sizes["routed"] += crec[SIZE]
                elif cname == "decompose_swaps":
                    stage["decompose"] += dur
                    sizes["decomposed"] += crec[SIZE]

        in_resynth: dict[str, int] = defaultdict(int)
        rounds = cancelled = entering = candidates = blocks = 0
        for rec in spans:
            name, parent = rec[NAME], rec[PARENT]
            if name == "resynthesize_blocks" and parent in postopt_spans:
                rounds += 1
            if parent >= 0 and spans[parent][NAME] == "resynthesize_blocks":
                in_resynth[name] += 1
            if name == "commutative_cancellation":
                n_in, n_out = rec[SIZE]
                entering += n_in
                cancelled += n_in - n_out
            elif name == "enumerate_candidates":
                candidates += rec[SIZE]
            elif name == "collect_blocks":
                blocks += rec[SIZE]

        commute_calls = calls["gates_commute"]
        iterations = calls["enumerate_candidates"]
        return {
            "routing.preopt_s": stage["preopt"],
            "routing.annotate_s": stage["annotate"],
            "routing.layout_s": stage["layout"],
            "routing.route_s": stage["route"],
            "routing.decompose_s": stage["decompose"],
            "routing.postopt_s": stage["postopt"],
            "routing.postopt_rounds": rounds,
            "routing.pipeline_self_s": stage["pipeline_self"],
            "routing.route_iterations": iterations,
            "routing.candidates_per_iter": candidates / iterations if iterations else 0.0,
            "routing.predict_calls": sum(calls[n] for n in PREDICT),
            "routing.predict_s": sum(total[n] for n in PREDICT),
            "routing.resynthesize_s": total["resynthesize_blocks"],
            "synthesis.min_cnot_count_calls": calls["min_cnot_count"],
            "synthesis.min_cnot_count_s": total["min_cnot_count"],
            "synthesis.kak_synthesize_calls": calls["kak_synthesize"],
            "synthesis.kak_synthesize_s": total["kak_synthesize"],
            "synthesis.rewrite_ratio": (
                in_resynth["kak_synthesize"] / in_resynth["min_cnot_count"]
                if in_resynth["min_cnot_count"] else 0.0
            ),
            "synthesis.merge_1q_s": total["merge_1q_runs"],
            "synthesis.blocks": blocks,
            "commutation.gates_commute_calls": commute_calls,
            "commutation.gates_commute_s": total["gates_commute"],
            "commutation.gates_commute_us": (
                1e6 * total["gates_commute"] / commute_calls if commute_calls else 0.0
            ),
            "commutation.analysis_s": total["commutation_analysis"],
            "commutation.cancellation_s": total["commutative_cancellation"],
            "commutation.cancelled_gates": cancelled,
            "commutation.cancel_yield": cancelled / entering if entering else 0.0,
            "dag.builds": calls["CircuitDag"],
            "dag.build_s": total["CircuitDag"],
            "topology.distance_s": sum(total[n] for n in DISTANCE),
            "ir.gates_preopt": sizes["preopt"],
            "ir.ops_routed": sizes["routed"],
            "ir.gates_decomposed": sizes["decomposed"],
            "ir.gates_postopt": sizes["postopt"],
            "trace.coverage_min": min(coverage) if coverage else 0.0,
        }
