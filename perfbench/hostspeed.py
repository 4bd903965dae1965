"""A fixed reference task that measures how fast the host runs right now.

The benchmark shares a few cores of a host whose speed drifts by 10-25%
over minutes.  Timing this task between compiles, in the same process,
gives the speed the compiles saw; dividing a compile time by the task's
time, and multiplying by REFERENCE_S, reports it in seconds of a host on
which the task takes REFERENCE_S.  The task uses only this file, Python
and numpy, so a change to the program cannot change it.  It mixes the
kinds of work a compile does: dict, tuple and list handling in the
interpreter, and numpy calls on 4x4 complex matrices.
"""

from __future__ import annotations

import gc
import time
from collections import deque

import numpy as np

# Roughly the task's time on the 2-core host the benchmark was tuned on,
# where it ranged from 0.019 to 0.034 s; a fixed scale only, so that
# normalized times read close to wall seconds there.
REFERENCE_S = 0.030

_SIDE = 12


def _python_part() -> int:
    """Breadth-first distances on a grid graph, then sorted edge scores."""
    nodes = [(r, c) for r in range(_SIDE) for c in range(_SIDE)]
    adj: dict[tuple[int, int], list[tuple[int, int]]] = {n: [] for n in nodes}
    for r, c in nodes:
        for dr, dc in ((0, 1), (1, 0)):
            m = (r + dr, c + dc)
            if m in adj:
                adj[(r, c)].append(m)
                adj[m].append((r, c))
    total = 0
    for src in nodes[::4] * 3:
        dist = {src: 0}
        queue = deque([src])
        while queue:
            u = queue.popleft()
            for v in adj[u]:
                if v not in dist:
                    dist[v] = dist[u] + 1
                    queue.append(v)
        scores = sorted(((d, n) for n, d in dist.items()), reverse=True)
        total += scores[0][0] + len(scores)
    return total


def _numpy_part() -> float:
    """Products, Kronecker products and spectra of small unitaries."""
    theta = np.linspace(0.1, 1.3, 96)
    acc = np.eye(4, dtype=complex)
    s = 0.0
    for t in theta:
        rz = np.diag([np.exp(-0.5j * t), np.exp(0.5j * t)])
        rx = np.array([[np.cos(t / 2), -1j * np.sin(t / 2)],
                       [-1j * np.sin(t / 2), np.cos(t / 2)]])
        acc = acc @ np.kron(rz, rx)
        s += float(np.abs(np.linalg.det(acc))) + float(np.sum(np.abs(np.linalg.eigvals(acc))))
    return s


def sample() -> float:
    """Seconds the reference task takes now.  The cyclic garbage collector is
    off meanwhile, so that the heap a compile left behind does not count."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        _python_part()
        _numpy_part()
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()
