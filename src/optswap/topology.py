"""Device connectivity: coupling maps and distance matrices.

Distances come in two flavors: plain BFS hop counts and a noise-aware variant
where each edge is weighted by a blend of its CNOT error rate, SWAP duration
and unit hop cost; multi-hop distances are weighted shortest paths, so the
cheapest noisy route may differ from the fewest-hop route.
"""

from __future__ import annotations

import heapq
import json
import math
import re
from collections import deque
from dataclasses import dataclass

import numpy as np


class TopologyError(ValueError):
    pass


class InvalidSize(TopologyError):
    pass


class DisconnectedGraph(TopologyError):
    pass


class MissingEdgeData(TopologyError):
    pass


class InvalidEdgeWeight(TopologyError):
    pass


def _norm_edge(a: int, b: int) -> tuple[int, int]:
    return (a, b) if a < b else (b, a)


@dataclass(frozen=True)
class CouplingMap:
    num_physical_qubits: int
    edges: frozenset[tuple[int, int]]

    def __post_init__(self):
        for a, b in self.edges:
            if a == b:
                raise TopologyError(f"self-loop on qubit {a}")
            if not (0 <= a < self.num_physical_qubits and 0 <= b < self.num_physical_qubits):
                raise TopologyError(f"edge ({a},{b}) outside {self.num_physical_qubits} qubits")

    @staticmethod
    def from_edges(n: int, edges) -> "CouplingMap":
        return CouplingMap(n, frozenset(_norm_edge(a, b) for a, b in edges))

    def neighbors(self, q: int) -> list[int]:
        out = []
        for a, b in self.edges:
            if a == q:
                out.append(b)
            elif b == q:
                out.append(a)
        return sorted(out)

    def adjacency(self) -> list[list[int]]:
        adj: list[list[int]] = [[] for _ in range(self.num_physical_qubits)]
        for a, b in self.edges:
            adj[a].append(b)
            adj[b].append(a)
        for lst in adj:
            lst.sort()
        return adj

    def has_edge(self, a: int, b: int) -> bool:
        return _norm_edge(a, b) in self.edges

    def sorted_edges(self) -> list[tuple[int, int]]:
        return sorted(self.edges)


# ibmq_montreal: 27-qubit heavy-hex lattice, 28 couplings, max degree 3.
MONTREAL_EDGES: tuple[tuple[int, int], ...] = (
    (0, 1), (1, 2), (1, 4), (2, 3), (3, 5), (4, 7), (5, 8), (6, 7),
    (7, 10), (8, 9), (8, 11), (10, 12), (11, 14), (12, 13), (12, 15),
    (13, 14), (14, 16), (15, 18), (16, 19), (17, 18), (18, 21), (19, 20),
    (19, 22), (21, 23), (22, 25), (23, 24), (24, 25), (25, 26),
)


def linear_map(n: int) -> CouplingMap:
    if n < 2:
        raise InvalidSize("linear topology needs at least 2 qubits")
    return CouplingMap.from_edges(n, [(i, i + 1) for i in range(n - 1)])


def grid_map(rows: int, cols: int) -> CouplingMap:
    if rows < 1 or cols < 1 or rows * cols < 2:
        raise InvalidSize("grid topology needs at least 2 qubits")
    edges = []
    for r in range(rows):
        for c in range(cols):
            q = r * cols + c
            if c + 1 < cols:
                edges.append((q, q + 1))
            if r + 1 < rows:
                edges.append((q, q + cols))
    return CouplingMap.from_edges(rows * cols, edges)


def montreal_map() -> CouplingMap:
    return CouplingMap.from_edges(27, MONTREAL_EDGES)


_LINEAR_RE = re.compile(r"^linear\((\d+)\)$")
_GRID_RE = re.compile(r"^grid\((\d+),\s*(\d+)\)$")


def builtin_map(name: str) -> CouplingMap:
    """Named topology: 'montreal_heavy_hex_27' (or 'montreal'), 'linear(n)', 'grid(r,c)'."""
    name = name.strip()
    if name in ("montreal", "montreal_heavy_hex_27"):
        return montreal_map()
    m = _LINEAR_RE.match(name)
    if m:
        return linear_map(int(m.group(1)))
    m = _GRID_RE.match(name)
    if m:
        return grid_map(int(m.group(1)), int(m.group(2)))
    raise TopologyError(f"unknown builtin coupling map '{name}'")


def _load_json(path) -> dict:
    with open(path, encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise TopologyError(f"{path}: not valid JSON: {exc}") from None
    if not isinstance(data, dict):
        raise TopologyError(f"{path}: expected a JSON object")
    return data


def _typed(value, kind, what: str):
    """`value`, which must be a `kind` (a bool counts as no number)."""
    if isinstance(value, bool) or not isinstance(value, kind):
        raise TopologyError(f"{what} has the wrong type: {value!r}")
    return value


def _field(data: dict, name: str, kind, where: str):
    if name not in data:
        raise TopologyError(f"{where}: missing field '{name}'")
    return _typed(data[name], kind, f"{where}: field '{name}'")


def load_coupling_map(path) -> CouplingMap:
    """``{"n": int, "edges": [[a, b], ...]}``; a malformed file raises a
    ``TopologyError`` that names the field."""
    data = _load_json(path)
    n = _field(data, "n", int, str(path))
    edges = []
    for i, edge in enumerate(_field(data, "edges", list, str(path))):
        what = f"{path}: field 'edges[{i}]'"
        if len(_typed(edge, list, what)) != 2:
            raise TopologyError(f"{what} is not a pair of qubits: {edge!r}")
        edges.append(tuple(_typed(q, int, what) for q in edge))
    return CouplingMap.from_edges(n, edges)


def resolve_coupling(spec: str) -> CouplingMap:
    """Builtin name or JSON file path."""
    try:
        return builtin_map(spec)
    except TopologyError:
        return load_coupling_map(spec)


def all_pairs_distance(cmap: CouplingMap) -> np.ndarray:
    """BFS hop counts between every pair of physical qubits.  The searches
    run on Python lists: indexing a numpy array per step costs several times
    the step."""
    n = cmap.num_physical_qubits
    adj = cmap.adjacency()
    rows = []
    for src in range(n):
        row = [-1.0] * n
        row[src] = 0.0
        queue = deque([src])
        while queue:
            u = queue.popleft()
            for v in adj[u]:
                if row[v] < 0:
                    row[v] = row[u] + 1.0
                    queue.append(v)
        rows.append(row)
    dist = np.array(rows, dtype=float).reshape(n, n)
    if (dist < 0).any():
        raise DisconnectedGraph("coupling map is not connected")
    return dist


@dataclass(frozen=True)
class NoiseProfile:
    cx_error: dict[tuple[int, int], float]
    swap_time: dict[tuple[int, int], float]
    alphas: tuple[float, float, float] = (0.5, 0.0, 0.5)

    def edge_error(self, a: int, b: int) -> float:
        key = _norm_edge(a, b)
        if key not in self.cx_error:
            raise MissingEdgeData(f"no cx_error for edge {key}")
        return self.cx_error[key]

    def edge_time(self, a: int, b: int) -> float:
        key = _norm_edge(a, b)
        if key not in self.swap_time:
            raise MissingEdgeData(f"no swap_time for edge {key}")
        return self.swap_time[key]

    @staticmethod
    def uniform(cmap: CouplingMap, cx_error: float = 0.01, swap_time: float = 1.0,
                alphas=(0.5, 0.0, 0.5)) -> "NoiseProfile":
        return NoiseProfile(
            {e: cx_error for e in cmap.edges},
            {e: swap_time for e in cmap.edges},
            tuple(alphas),
        )


def load_noise_profile(path) -> NoiseProfile:
    """``{"edges": [{"a", "b", "cx_error", "swap_time"}, ...], "alphas":
    [3 numbers]}`` (alphas optional); a malformed file raises a
    ``TopologyError`` that names the field."""
    data = _load_json(path)
    number = (int, float)
    cx_error, swap_time = {}, {}
    for i, entry in enumerate(_field(data, "edges", list, str(path))):
        where = f"{path}: edges[{i}]"
        _typed(entry, dict, where)
        key = _norm_edge(_field(entry, "a", int, where), _field(entry, "b", int, where))
        cx_error[key] = float(_field(entry, "cx_error", number, where))
        swap_time[key] = float(_field(entry, "swap_time", number, where))
    alphas = [0.5, 0.0, 0.5]
    if "alphas" in data:
        alphas = _field(data, "alphas", list, str(path))
    what = f"{path}: field 'alphas'"
    if len(alphas) != 3:
        raise TopologyError(f"{what} must hold 3 numbers: {alphas!r}")
    return NoiseProfile(cx_error, swap_time,
                        tuple(float(_typed(a, number, what)) for a in alphas))


def noise_distance(cmap: CouplingMap, profile: NoiseProfile) -> np.ndarray:
    """All-pairs shortest paths under per-edge weights
    alpha1*error + alpha2*time + alpha3*hop.

    Every weight must be positive and finite: Dijkstra needs nonnegative
    weights, and the router's stall fallback needs each hop along a shortest
    path to bring the qubits strictly closer.
    """
    n = cmap.num_physical_qubits
    a1, a2, a3 = profile.alphas
    adj: list[list[tuple[int, float]]] = [[] for _ in range(n)]
    for a, b in cmap.sorted_edges():
        w = a1 * profile.edge_error(a, b) + a2 * profile.edge_time(a, b) + a3 * 1.0
        if not (math.isfinite(w) and w > 0):
            raise InvalidEdgeWeight(
                f"edge ({a},{b}) has weight {w}; weights must be positive and finite"
            )
        adj[a].append((b, w))
        adj[b].append((a, w))
    rows = []
    for src in range(n):
        row = [math.inf] * n
        row[src] = 0.0
        heap = [(0.0, src)]
        while heap:
            d, u = heapq.heappop(heap)
            if d > row[u]:
                continue
            for v, w in adj[u]:
                nd = d + w
                if nd < row[v] - 1e-15:
                    row[v] = nd
                    heapq.heappush(heap, (nd, v))
        rows.append(row)
    dist = np.array(rows, dtype=float).reshape(n, n)
    if np.isinf(dist).any():
        raise DisconnectedGraph("coupling map is not connected")
    return dist
