"""Parallel-prefix TMFG construction (Algorithm 1) — driver reference.

This is the deterministic reference implementation of the paper's
Algorithm 1: per round, the ``PREFIX`` best vertex-face pairs (by gain)
are selected from the per-face GAINS table, conflicts are resolved by
letting each vertex keep only its best face, and all surviving pairs are
inserted in the same round. ``prefix=1`` reproduces the exact sequential
TMFG of Massara et al. The bubble tree (Algorithm 2) is built during
construction.

This is the only TMFG builder: ``seq_tdbht`` and ``par_tdbht`` both call
``tmfg``, so their graphs and bubble trees are identical by construction.
All ties break toward smaller vertex/face ids, so the output is
deterministic.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.graphs.bubble_tree import BubbleTree

Triangle = Tuple[int, int, int]


@dataclass
class TMFGResult:
    """Output of TMFG construction.

    ``edges`` is the ``(3n-6, 2)`` edge list (u < v, lexicographically
    sorted); ``tree`` is the bubble tree built during construction;
    ``rounds`` counts while-loop iterations (the paper's rho);
    ``insertions`` records ``(vertex, triangle)`` in insertion order.
    """

    n: int
    prefix: int
    edges: np.ndarray
    tree: BubbleTree
    rounds: int
    seed_vertices: np.ndarray
    insertions: List[Tuple[int, Triangle]] = field(default_factory=list)

    def edge_weight_sum(self, S: np.ndarray) -> float:
        return float(S[self.edges[:, 0], self.edges[:, 1]].sum())


def _check_similarity(S: np.ndarray) -> np.ndarray:
    S = np.asarray(S, dtype=np.float64)
    n = S.shape[0]
    if S.shape != (n, n):
        raise ValueError("S must be square")
    if n < 4:
        raise ValueError("TMFG needs at least 4 vertices")
    if not np.isfinite(S).all():
        raise ValueError("S must be finite (no NaN or inf)")
    if not np.allclose(S, S.T, atol=1e-8):
        raise ValueError("S must be symmetric")
    return S


def _best_vertex(S: np.ndarray, triangle: Triangle,
                 remaining: np.ndarray) -> Optional[Tuple[int, float]]:
    """Best remaining vertex for a face and its gain (ties: smallest id)."""
    if not remaining.any():
        return None
    gains = S[triangle[0]] + S[triangle[1]] + S[triangle[2]]
    gains = np.where(remaining, gains, -np.inf)
    v = int(np.argmax(gains))  # first occurrence of the max -> smallest id
    return v, float(gains[v])


def select_batch(gains: Dict[int, Tuple[int, float]],
                 prefix: int) -> List[Tuple[int, int]]:
    """Round selection (Lines 9-10): pick the ``prefix`` faces with the
    largest gains, then resolve vertex conflicts by keeping each vertex's
    highest-gain face. Returns ``(vertex, face_id)`` pairs sorted by face
    id. Ties break toward smaller face ids everywhere.
    """
    top = sorted(gains.items(), key=lambda kv: (-kv[1][1], kv[0]))[:prefix]
    best_for_vertex: Dict[int, Tuple[float, int]] = {}
    for fid, (v, g) in top:
        cur = best_for_vertex.get(v)
        if cur is None or (-g, fid) < (-cur[0], cur[1]):
            best_for_vertex[v] = (g, fid)
    return sorted(((v, fid) for v, (_, fid) in best_for_vertex.items()),
                  key=lambda p: p[1])


def tmfg(S: np.ndarray, prefix: int = 1) -> TMFGResult:
    """Construct the TMFG of similarity matrix ``S`` (Algorithm 1)."""
    S = _check_similarity(S)
    if prefix < 1:
        raise ValueError("prefix must be >= 1")
    n = S.shape[0]
    # Lines 1-4: seed with the 4 vertices of largest row sum.
    row_sums = S.sum(axis=1)
    seed = np.argsort(-row_sums, kind="stable")[:4]
    v1, v2, v3, v4 = (int(x) for x in seed)
    edges: List[Tuple[int, int]] = [
        tuple(sorted(p))
        for p in ((v1, v2), (v1, v3), (v1, v4), (v2, v3), (v2, v4), (v3, v4))
    ]
    faces: Dict[int, Triangle] = {
        0: tuple(sorted((v1, v2, v3))),
        1: tuple(sorted((v1, v2, v4))),
        2: tuple(sorted((v1, v3, v4))),
        3: tuple(sorted((v2, v3, v4))),
    }
    next_fid = 4
    remaining = np.ones(n, dtype=bool)
    remaining[[v1, v2, v3, v4]] = False
    # Line 5: initial GAINS.
    gains: Dict[int, Tuple[int, float]] = {}
    for fid, tri in faces.items():
        b = _best_vertex(S, tri, remaining)
        if b is not None:
            gains[fid] = b
    # Lines 6-7: bubble tree seeded with the clique; face 0 is the outer face.
    tree = BubbleTree.initial(seed, [0, 1, 2, 3], outer_face=0)
    insertions: List[Tuple[int, Triangle]] = []
    rounds = 0
    # Lines 8-17: insert remaining vertices in batches of up to ``prefix``.
    while remaining.any():
        rounds += 1
        batch = select_batch(gains, prefix)
        inserted = {v for v, _ in batch}
        remaining[list(inserted)] = False
        new_fids: List[int] = []
        for v, fid in batch:  # face ids are distinct; order is deterministic
            vx, vy, vz = faces[fid]
            edges.extend(((min(v, vx), max(v, vx)),
                          (min(v, vy), max(v, vy)),
                          (min(v, vz), max(v, vz))))
            created = [next_fid, next_fid + 1, next_fid + 2]
            next_fid += 3
            # paper's face order: {v,vx,vy}, {v,vy,vz}, {v,vx,vz}
            faces[created[0]] = tuple(sorted((v, vx, vy)))
            faces[created[1]] = tuple(sorted((v, vy, vz)))
            faces[created[2]] = tuple(sorted((v, vx, vz)))
            tree.insert(v, fid, (vx, vy, vz), created)
            del faces[fid]
            del gains[fid]
            new_fids.extend(created)
            insertions.append((v, (vx, vy, vz)))
        if remaining.any():
            stale = [fid for fid, (bv, _) in gains.items() if bv in inserted]
            for fid in stale + new_fids:
                gains[fid] = _best_vertex(S, faces[fid], remaining)
        else:
            gains.clear()
    edge_arr = np.array(sorted(set(edges)), dtype=np.int64)
    if len(edge_arr) != 3 * n - 6:
        raise RuntimeError(f"TMFG must have exactly 3n-6 = {3 * n - 6} "
                           f"edges, got {len(edge_arr)}")
    return TMFGResult(n=n, prefix=prefix, edges=edge_arr, tree=tree,
                      rounds=rounds, seed_vertices=seed, insertions=insertions)
