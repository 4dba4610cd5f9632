"""Parallel DBHT for TMFG (Algorithm 4), run on the driver by both
SEQ-TDBHT and PAR-TDBHT (PAR-TDBHT fans only the APSP out over Spark).

Steps (Section V):
  1. direct the bubble-tree edges (Algorithm 3, linear work);
  2. find converging bubbles (out-degree 0) and, per bubble, the set of
     converging bubbles reachable along directed edges;
  3. APSP over the TMFG under the dissimilarity weights;
  4. first-level assignment: every vertex gets a *group* (a converging
     bubble) — by max attachment chi for vertices inside a converging
     bubble, else by min mean shortest-path distance to the already
     assigned vertices ``V_b^0``;
  5. second-level assignment: every vertex gets a *bubble* by max
     normalized attachment chi';
  6. hierarchy: complete linkage at three levels (intra-bubble subgroups,
     inter-bubble within a group, inter-group), with the Aste height
     assignment (heights ``[1/(n_b-1), ..., 1]`` inside each group;
     converging-bubble counts above).

Tie-breaking: the paper's WRITEMAX/WRITEMIN on (score, bubble) pairs
leaves ties platform-defined; scores here are summed in a fixed order and
compared exactly, and every exact tie goes to the smaller bubble id.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.core.dendrogram import Dendrogram
from repro.core.linkage import hac, pairwise_max_between
from repro.core.tmfg import TMFGResult
from repro.graphs import shortest_paths


@dataclass
class Assignments:
    """Per-vertex group (converging bubble id) and bubble id."""

    group: np.ndarray
    bubble: np.ndarray
    converging: np.ndarray  # converging bubble ids, ascending


@dataclass
class DBHTResult:
    dendrogram: Dendrogram
    assignments: Assignments
    apsp: np.ndarray  # (n, n) shortest-path distances used by the hierarchy


# --------------------------------------------------------------------- APSP
def tmfg_apsp(D: np.ndarray, t: TMFGResult,
              rows: Callable[..., np.ndarray] = shortest_paths.apsp
              ) -> np.ndarray:
    """All-pairs shortest paths over the TMFG with dissimilarity weights.

    ``rows(n, edges, weights)`` returns the ``(n, n)`` distance matrix:
    by default every Dijkstra runs on the driver; PAR-TDBHT passes the
    Spark fan-out (``repro.spark.apsp_spark.apsp_matrix``).
    """
    D = np.asarray(D)
    if D.shape != (t.n, t.n):
        raise ValueError(f"D must be ({t.n}, {t.n}) like the TMFG's S, "
                         f"got {D.shape}")
    w = D[t.edges[:, 0], t.edges[:, 1]]
    if not np.all(np.isfinite(w)):
        raise ValueError("D must be finite on TMFG edges (no NaN or inf)")
    if np.any(w < 0):
        raise ValueError("D must be nonnegative on TMFG edges")
    return rows(t.n, t.edges, w)


# --------------------------------------------------- vertex assignment (4-23)
def _argbest(v: np.ndarray, key: np.ndarray, b: np.ndarray,
             n: int) -> np.ndarray:
    """Per vertex, the bubble of its candidate ``(v, key, b)`` with the
    smallest key, ties to the smallest bubble id; -1 without candidates."""
    order = np.lexsort((b, key, v))
    vs = v[order]
    first = np.ones(len(vs), dtype=bool)
    first[1:] = vs[1:] != vs[:-1]
    out = np.full(n, -1, dtype=np.int64)
    out[vs[first]] = b[order][first]
    return out


def assign_vertices(S: np.ndarray, t: TMFGResult,
                    dist: np.ndarray) -> Assignments:
    """Lines 4-23 of Algorithm 4: group and bubble assignment.

    One vectorized pass over the ``(n_b, 4)`` bubble array (members
    ascending): every ``(v, b)`` membership pair gets chi(v, b), the sum
    of ``S[u, v]`` over the three other members ``u`` of ``b`` in
    ascending ``u`` order, and chi'(v, b) = chi(v, b) / (sum of the six
    intra-bubble edges). Scores are compared exactly.
    """
    tree = t.tree
    if tree.down is None:
        tree.compute_directions(S, t.edges)
    n = t.n
    cvg = tree.converging_bubbles()
    reach = tree.reachable_converging()  # (n_bubbles, n_cvg) bool
    B = np.asarray(tree.bubbles, dtype=np.int64)  # rows ascending
    n_b = len(B)
    W = S[B[:, :, None], B[:, None, :]]  # W[b, i, j] = S[B[b, i], B[b, j]]
    chi = np.empty((n_b, 4))
    for j in range(4):
        i0, i1, i2 = (i for i in range(4) if i != j)
        chi[:, j] = W[:, i0, j] + W[:, i1, j] + W[:, i2, j]
    denom = (W[:, 0, 1] + W[:, 0, 2] + W[:, 0, 3]
             + W[:, 1, 2] + W[:, 1, 3] + W[:, 2, 3])
    # membership pairs (v, b), bubble-major
    pv = B.ravel()
    pb = np.repeat(np.arange(n_b), 4)

    # First level: vertices inside a converging bubble take the converging
    # bubble of max chi.
    k_of = np.full(n_b, -1, dtype=np.int64)  # bubble -> index in cvg
    k_of[cvg] = np.arange(len(cvg))
    in_cvg = k_of[pb] >= 0
    group = _argbest(pv[in_cvg], -chi.ravel()[in_cvg], pb[in_cvg], n)

    # Remaining vertices: min mean shortest-path distance L-bar to V_b^0
    # (the first-level members of b) over the converging bubbles they can
    # reach with V_b^0 nonempty (fallback: all such bubbles, which the
    # paper's "v -> b" set always contains in practice).
    unassigned = np.flatnonzero(group == -1)
    if unassigned.size:
        assigned = np.flatnonzero(group >= 0)
        ka = k_of[group[assigned]]
        count = np.bincount(ka, minlength=len(cvg))
        nonempty = np.flatnonzero(count)
        # L-bar sums dist[u, v] over u in V_b^0 in ascending u (``add.at``
        # accumulates row by row)
        lbar = np.zeros((len(cvg), len(unassigned)))
        np.add.at(lbar, ka, dist[np.ix_(assigned, unassigned)])
        lbar = lbar[nonempty] / count[nonempty][:, None]
        # candidates: converging bubbles reachable from a bubble holding v
        by_v = np.argsort(pv, kind="stable")
        reach_v = np.logical_or.reduceat(
            reach[pb[by_v]], np.searchsorted(pv[by_v], np.arange(n)), axis=0)
        cand = reach_v[np.ix_(unassigned, nonempty)].T
        cand[:, ~cand.any(axis=0)] = True
        kk, vi = np.nonzero(cand)
        group[unassigned] = _argbest(vi, lbar[kk, vi], cvg[nonempty][kk],
                                     len(unassigned))

    # Second level: bubble assignment by max chi' for *all* vertices (per
    # the paper's footnote, matching the reference implementation).
    bubble = _argbest(pv, -(chi / denom[:, None]).ravel(), pb, n)
    return Assignments(group=group, bubble=bubble, converging=cvg)


# ----------------------------------------------------------- hierarchy (24-33)
@dataclass
class _Node:
    """Bookkeeping for one internal dendrogram node before heights exist."""

    nid: int
    level: str  # 'sub' | 'group' | 'top'
    group: int  # converging bubble id (-1 for top)
    bubble: int  # bubble id for 'sub' nodes, -1 otherwise
    dist: float  # merge distance at creation
    seq: int  # creation sequence for tie-breaking


def _run_linkage_into(merges: List[Tuple[int, int]], nodes: List[_Node],
                      Z: np.ndarray, item_nodes: List[int], n_leaves: int,
                      level: str, group: int, bubble: int) -> int:
    """Append a local linkage ``Z`` over ``item_nodes`` to the global merge
    list, returning the root's global node id."""
    m = len(item_nodes)
    if m == 1:
        return item_nodes[0]
    local_to_global = {i: item_nodes[i] for i in range(m)}
    root = -1
    for r in range(m - 1):
        left, right, d, _ = Z[r]
        gl = local_to_global[int(left)]
        gr = local_to_global[int(right)]
        nid = n_leaves + len(merges)
        merges.append((min(gl, gr), max(gl, gr)))
        nodes.append(_Node(nid=nid, level=level, group=group, bubble=bubble,
                           dist=float(d), seq=len(nodes)))
        local_to_global[m + r] = nid
        root = nid
    return root


def build_hierarchy(assign: Assignments, dist: np.ndarray) -> Dendrogram:
    """Lines 24-33 + the Aste height assignment (Section V-D)."""
    n = dist.shape[0]
    merges: List[Tuple[int, int]] = []
    nodes: List[_Node] = []
    groups = sorted(int(g) for g in np.unique(assign.group))
    group_roots: List[int] = []
    group_members: List[np.ndarray] = []
    for g in groups:
        g_members = np.flatnonzero(assign.group == g)
        bubbles = sorted(int(b) for b in np.unique(assign.bubble[g_members]))
        sub_roots: List[int] = []
        sub_members: List[np.ndarray] = []
        for q in bubbles:
            members = np.flatnonzero((assign.group == g) & (assign.bubble == q))
            sub_members.append(members)
            if len(members) == 1:
                sub_roots.append(int(members[0]))
                continue
            Z = hac(dist[np.ix_(members, members)], "complete")
            root = _run_linkage_into(
                merges, nodes, Z, [int(x) for x in members], n, "sub", g, q
            )
            sub_roots.append(root)
        if len(sub_roots) > 1:
            M = pairwise_max_between(dist, sub_members)
            Z = hac(M, "complete")
            root = _run_linkage_into(merges, nodes, Z, sub_roots, n,
                                     "group", g, -1)
        else:
            root = sub_roots[0]
        group_roots.append(root)
        group_members.append(g_members)
    if len(group_roots) > 1:
        M = pairwise_max_between(dist, group_members)
        Z = hac(M, "complete")
        _run_linkage_into(merges, nodes, Z, group_roots, n, "top", -1, -1)

    # ---- heights -----------------------------------------------------------
    heights = np.zeros(len(merges))
    by_group: Dict[int, List[_Node]] = {}
    for nd in nodes:
        if nd.level in ("sub", "group"):
            by_group.setdefault(nd.group, []).append(nd)
    for g, nds in by_group.items():
        n_b = int((assign.group == g).sum())
        ladder = [1.0 / (n_b - 1 - i) for i in range(n_b - 1)]  # ascending
        # subgroup nodes first (by bubble, then merge distance), then
        # group-level nodes (by merge distance); seq breaks exact ties.
        def sort_key(nd: _Node):
            if nd.level == "sub":
                return (0, nd.bubble, nd.dist, nd.seq)
            return (1, 0, nd.dist, nd.seq)
        nds_sorted = sorted(nds, key=sort_key)
        if len(nds_sorted) != n_b - 1:
            raise RuntimeError(
                f"group {g} has {len(nds_sorted)} internal nodes for "
                f"{n_b} members, expected {n_b - 1}")
        for h, nd in zip(ladder, nds_sorted):
            heights[nd.nid - n] = h
    # top-level nodes: height = number of converging bubbles (groups) below.
    group_leaf_count: Dict[int, int] = {}
    for root in group_roots:
        group_leaf_count[root] = 1
    for nd in nodes:
        if nd.level == "top":
            left, right = merges[nd.nid - n]
            c = group_leaf_count.get(left, 0) + group_leaf_count.get(right, 0)
            group_leaf_count[nd.nid] = c
            heights[nd.nid - n] = float(c)
    merge_arr = np.array(
        [(left, right, heights[i]) for i, (left, right) in enumerate(merges)],
        dtype=np.float64,
    ).reshape(-1, 3)
    return Dendrogram(n_leaves=n, merges=merge_arr)


# ------------------------------------------------------------------ end2end
def dbht(S: np.ndarray, D: np.ndarray, t: TMFGResult,
         dist: Optional[np.ndarray] = None) -> DBHTResult:
    """Full DBHT on a TMFG: directions, assignments, hierarchy."""
    if dist is None:
        dist = tmfg_apsp(D, t)
    assign = assign_vertices(S, t, dist)
    dendro = build_hierarchy(assign, dist)
    return DBHTResult(dendrogram=dendro, assignments=assign, apsp=dist)
