"""Results the optimization passes recompute, kept for one compile.

``full_pipeline`` creates one ``CompileMemo`` and hands it to every pass
that runs before and after routing; it is dropped when the compile returns.
The keys are gate content, so a result found once serves every block or gate
pair with the same content in any later round (``synthesis`` and
``commutation`` say what each key holds).  Passes called without a memo get
a fresh one, so they behave as if nothing had been computed before.
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
    commute: dict[tuple[Gate, Gate], bool] = field(default_factory=dict)
