"""Distance matrices filled entry by entry in numpy arrays: a reference for
tests.

These are ``topology.all_pairs_distance`` and ``topology.noise_distance`` as
they were before their searches moved to Python lists, minus the checks for
disconnected maps.  The searches and the float operations are the same, so
the two must agree with ``np.array_equal``.
"""

from __future__ import annotations

import heapq
from collections import deque

import numpy as np


def array_bfs_distance(cmap) -> np.ndarray:
    n = cmap.num_physical_qubits
    adj = cmap.adjacency()
    dist = np.full((n, n), -1.0)
    for src in range(n):
        dist[src, src] = 0.0
        queue = deque([src])
        while queue:
            u = queue.popleft()
            for v in adj[u]:
                if dist[src, v] < 0:
                    dist[src, v] = dist[src, u] + 1.0
                    queue.append(v)
    return dist


def array_noise_distance(cmap, profile) -> np.ndarray:
    n = cmap.num_physical_qubits
    a1, a2, a3 = profile.alphas
    adj = [[] for _ in range(n)]
    for a, b in cmap.sorted_edges():
        w = a1 * profile.edge_error(a, b) + a2 * profile.edge_time(a, b) + a3 * 1.0
        adj[a].append((b, w))
        adj[b].append((a, w))
    dist = np.full((n, n), np.inf)
    for src in range(n):
        dist[src, src] = 0.0
        heap = [(0.0, src)]
        while heap:
            d, u = heapq.heappop(heap)
            if d > dist[src, u]:
                continue
            for v, w in adj[u]:
                nd = d + w
                if nd < dist[src, v] - 1e-15:
                    dist[src, v] = nd
                    heapq.heappush(heap, (nd, v))
    return dist
