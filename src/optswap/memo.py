"""Results the optimization passes recompute, kept for one compile.

``full_pipeline`` creates one ``CompileMemo`` and hands it to every pass
that runs before and after routing; it is dropped when the compile returns.
Results are keyed on content, so a result found once serves every block,
gate pair or 1q run with the same content in any later round:

- ``blocks``: per two-qubit block content, its CNOT counts and re-synthesized
  gates (``synthesis`` says what the key holds);
- ``gate_ids``: a small int per distinct ``Gate`` (ids follow ``Gate``
  equality), so that the decisions below are looked up by ints instead of
  by re-hashing and comparing gates;
- ``commute``: per (gate id, gate id), whether the first gate commutes with
  the second (``commutation.gates_commute``);
- ``content_ids``: per gate id, the id of the gate's content, its kind and
  its params rounded to 12 places (``contents`` interns them): all that
  ``gates_commute`` reads of a gate besides its wires;
- ``content_commute``: per (content id, content id, the two gates' wires
  relabelled as ``gates_commute`` relabels them), the same decision, so a
  pair new to ``commute`` is decided once for all wires it appears on;
- ``merges``: per run of adjacent 1q gates, what replaces it
  (``synthesis.merge_1q_runs``).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .gates import Gate


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
