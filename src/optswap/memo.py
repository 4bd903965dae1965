"""Results the optimization passes recompute, kept for one compile.

``full_pipeline`` creates one ``CompileMemo`` and hands it to every pass
that runs before and after routing; it is dropped when the compile returns.
Results are keyed on content, so a result found once serves every block,
gate pair or 1q run with the same content in any later round:

- ``blocks``: per two-qubit block content, its CNOT counts and re-synthesized
  gates (``synthesis`` says what the key holds); a block with one CX, CY or
  CZ gets its counts when its entry is made (``synthesis.block_results``).
  A resynthesis pass fills the entries it needs all at once, after it has
  looked up every block of its DAG: first the counts, then the gates, each
  in one stacked call (``routing.resynthesize_blocks``); the router fills
  one block's counts at a time, as it reads them;
- ``gate_ids``: a small int per distinct ``Gate`` (ids follow ``Gate``
  equality), so that the decisions below are looked up by ints instead of
  by re-hashing and comparing gates;
- ``commute``: per (gate id, gate id), whether the first gate commutes with
  the second (``commutation.gates_commute``), for the optimization passes
  and the router's sandwich predictor alike, whose physical gates get ids
  too;
- ``content_ids``: per gate id, the id of the gate's content, its kind and
  its params rounded to 12 places (``contents`` interns them): all that
  ``gates_commute`` reads of a gate besides its wires;
- ``content_commute``: per (content id, content id, how the two gates meet),
  the same decision, so a pair new to ``commute`` is decided once for all
  wires it appears on.  A 1q gate and a CX or CZ meet in a role: on the
  CX's control, on its target, or on the CZ; any other pair meets in its
  wires relabelled as ``gates_commute`` relabels them
  (``commutation._decide``);
- ``merges``: per run of adjacent 1q gates, what replaces it
  (``synthesis.merge_1q_runs``);
- ``matrices``: per exact content (``exact_content``), the gate's matrix,
  built once and read-only (``matrix``), for the block unitaries and 1q-run
  products of ``synthesis``;
- ``fixpoint``: the DAG the last ``routing.optimize_circuit`` call returned
  its circuit from, when its last round changed nothing and so analysed that
  very DAG's blocks and commute sets; the router's DAG of the same gates
  adopts them.  None when the round cap stopped the loop.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .dag import CircuitDag
from .gates import Gate, gate_matrix


def exact_content(gate: Gate) -> tuple:
    """A gate's kind and params, each zero param with its sign: 0.0 == -0.0,
    but their matrices differ in signed zeros, which ``np.angle`` can read
    as +pi or -pi."""
    params = gate.params
    if 0.0 in params:
        params = tuple((p, math.copysign(1.0, p)) for p in params)
    return gate.kind, params


@dataclass(slots=True)
class BlockResults:
    """What a two-qubit block's content determines, each filled on first
    need: its minimal CNOT count, that count with a SWAP appended, and its
    re-synthesized gates on the local pair (0, 1)."""

    cx: int | None = None
    cx_with_swap: int | None = None
    gates: tuple[Gate, ...] | None = None


@dataclass
class CompileMemo:
    blocks: dict[tuple, BlockResults] = field(default_factory=dict)
    gate_ids: dict[Gate, int] = field(default_factory=dict)
    commute: dict[tuple[int, int], bool] = field(default_factory=dict)
    merges: dict[tuple, tuple[float, ...] | bool | None] = field(default_factory=dict)
    contents: dict[tuple, int] = field(default_factory=dict)
    content_ids: list[int] = field(default_factory=list)
    content_commute: dict[tuple, bool] = field(default_factory=dict)
    matrices: dict[tuple, np.ndarray] = field(default_factory=dict)
    fixpoint: CircuitDag | None = None

    def matrix(self, gate: Gate) -> np.ndarray:
        """``gate_matrix(gate)``, built once per exact content; read-only,
        since every gate of that content shares it."""
        key = exact_content(gate)
        m = self.matrices.get(key)
        if m is None:
            m = self.matrices[key] = gate_matrix(gate)
            m.flags.writeable = False
        return m

    def gate_id(self, gate: Gate) -> int:
        """The gate's id in this compile, given on first sight, when its
        content id is found too."""
        gid = self.gate_ids.get(gate)
        if gid is None:
            gid = self.gate_ids[gate] = len(self.gate_ids)
            content = (gate.kind, tuple(round(p, 12) for p in gate.params))
            cid = self.contents.get(content)
            if cid is None:
                cid = self.contents[content] = len(self.contents)
            self.content_ids.append(cid)
        return gid
