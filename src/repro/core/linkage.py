"""Hierarchical agglomerative clustering via the nearest-neighbor chain.

Provides the COMP / AVG baselines of the paper (parallel C++ ParChain in
the original; here a deterministic O(n^2) numpy NN-chain — complete and
average linkage are both *reducible*, so NN-chain produces the correct
dendrogram) and the complete-linkage subroutine used by DBHT at all three
levels (Section V-D).

All ties break toward the smallest cluster id so results are deterministic
and the Spark and driver paths agree exactly.
"""
from __future__ import annotations

from typing import List

import numpy as np


def hac(D: np.ndarray, method: str = "complete",
        sizes: np.ndarray | None = None) -> np.ndarray:
    """Agglomerate ``m`` items with pairwise distances ``D`` (symmetric).

    ``sizes`` gives initial cluster sizes (used by average linkage when the
    "items" are pre-formed clusters, as in DBHT's group level; defaults to
    all ones). Returns a scipy-style linkage matrix ``Z`` of shape
    ``(m-1, 4)``: columns are (left id, right id, merge distance, new
    size); leaves are ``0..m-1``, the merge in row ``r`` creates node
    ``m + r``. Rows are in merge (NN-chain) order; distances are monotone
    along every root path but not necessarily sorted across rows.
    """
    if method not in ("complete", "average"):
        raise ValueError(f"unknown linkage method: {method}")
    m = D.shape[0]
    if D.shape != (m, m):
        raise ValueError("D must be square")
    if m == 0:
        raise ValueError("need at least one item")
    if m == 1:
        return np.empty((0, 4))
    W = D.astype(np.float64, copy=True)
    np.fill_diagonal(W, np.inf)
    size = np.ones(m) if sizes is None else np.asarray(sizes, dtype=np.float64).copy()
    # slot s holds cluster cluster_id[s]; inactive slots have cluster_id -1
    cluster_id = np.arange(m, dtype=np.int64)
    active = np.ones(m, dtype=bool)
    Z = np.empty((m - 1, 4))
    chain: List[int] = []  # slots
    n_merges = 0
    next_id = m
    while n_merges < m - 1:
        if not chain:
            chain.append(int(np.flatnonzero(active)[0]))
        a = chain[-1]
        row = np.where(active, W[a], np.inf)
        row[a] = np.inf
        b = int(np.argmin(row))  # ties -> smallest slot
        if len(chain) >= 2 and row[chain[-2]] == row[b]:
            b = chain[-2]  # prefer closing the chain on ties (reciprocal NN)
        if len(chain) >= 2 and b == chain[-2]:
            # reciprocal nearest neighbors: merge slots a and b
            chain.pop()
            chain.pop()
            dist = W[a, b]
            ia, ib = cluster_id[a], cluster_id[b]
            lo, hi = (ia, ib) if ia < ib else (ib, ia)
            if method == "complete":
                new_row = np.maximum(W[a], W[b])
            else:
                new_row = (size[a] * W[a] + size[b] * W[b]) / (size[a] + size[b])
            keep = a if a < b else b
            drop = b if a < b else a
            W[keep] = new_row
            W[:, keep] = new_row
            W[keep, keep] = np.inf
            active[drop] = False
            W[drop] = np.inf
            W[:, drop] = np.inf
            size[keep] = size[a] + size[b]
            Z[n_merges] = (lo, hi, dist, size[keep])
            cluster_id[keep] = next_id
            next_id += 1
            n_merges += 1
        else:
            chain.append(b)
    return Z


def pairwise_max_between(D: np.ndarray, groups: List[np.ndarray]) -> np.ndarray:
    """Matrix of complete-linkage (max) distances between vertex groups.

    Used by DBHT's inter-bubble and inter-group levels, where the distance
    between two sets is ``max l_D(u, v)`` over cross pairs.
    """
    k = len(groups)
    M = np.zeros((k, k))
    for i in range(k):
        for j in range(i + 1, k):
            M[i, j] = M[j, i] = D[np.ix_(groups[i], groups[j])].max()
    return M
