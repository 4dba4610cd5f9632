"""Shortest-path substrate: Dijkstra + APSP over sparse weighted graphs.

The DBHT algorithm needs all-pairs shortest paths on the TMFG (a planar
graph with exactly ``3n - 6`` edges) under the *dissimilarity* edge
weights. The environment ships no scipy, so Dijkstra is implemented with
``heapq``. The Spark APSP job (``repro.spark.apsp_spark``) splits the
sources into blocks and calls :func:`apsp` on each block in a Spark task.
"""
from __future__ import annotations

import heapq
from typing import List, Sequence, Tuple

import numpy as np

Adjacency = List[List[Tuple[int, float]]]


def build_adjacency(n: int, edges: np.ndarray, weights: np.ndarray) -> Adjacency:
    """Adjacency list for an undirected graph.

    ``edges`` is an ``(m, 2)`` int array, ``weights`` an ``(m,)`` float
    array of nonnegative edge weights.
    """
    adj: Adjacency = [[] for _ in range(n)]
    for (u, v), w in zip(edges, weights):
        u, v, w = int(u), int(v), float(w)
        adj[u].append((v, w))
        adj[v].append((u, w))
    return adj


def dijkstra(adj: Adjacency, src: int) -> np.ndarray:
    """Single-source shortest path distances from ``src``.

    Unreachable vertices get ``inf``. Standard binary-heap Dijkstra with
    lazy deletion; weights must be nonnegative.
    """
    n = len(adj)
    dist = np.full(n, np.inf)
    dist[src] = 0.0
    heap: List[Tuple[float, int]] = [(0.0, src)]
    while heap:
        d, u = heapq.heappop(heap)
        if d > dist[u]:
            continue
        for v, w in adj[u]:
            nd = d + w
            if nd < dist[v]:
                dist[v] = nd
                heapq.heappush(heap, (nd, v))
    return dist


def apsp(n: int, edges: np.ndarray, weights: np.ndarray,
         sources: Sequence[int] | None = None) -> np.ndarray:
    """All-pairs (or selected-sources) shortest path distance matrix.

    Returns a ``(len(sources), n)`` matrix of distances (``sources``
    defaults to all vertices, giving the full ``(n, n)`` APSP matrix).
    """
    adj = build_adjacency(n, edges, weights)
    sources = np.arange(n) if sources is None else np.asarray(sources)
    out = np.empty((len(sources), n))
    for i, s in enumerate(sources):
        out[i] = dijkstra(adj, int(s))
    return out
