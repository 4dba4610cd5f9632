"""Generic (original-style) DBHT for arbitrary maximal planar graphs.

This is the *baseline* DBHT of Song et al. (2012), needed for the paper's
PMFG-DBHT comparator: unlike ``repro.core.dbht`` (which exploits the TMFG
construction to get the bubble tree for free), this module detects bubbles
from scratch — enumerate all triangles, test each for being separating
(does removing its 3 vertices disconnect the graph?), cut the graph along
every separating triangle, and connect pieces sharing a triangle. Edge
directions are computed by the original quadratic method (per-edge BFS of
interior vs exterior weight). Assignments use the paper's general
formulas, with chi normalized by ``3(|b| - 2)`` (the bubble's edge count)
since PMFG bubbles need not be 4-cliques.

For TMFG inputs this entire machinery must reproduce the fast path's
bubble tree and assignments exactly — a test cross-validates that.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Set, Tuple

import numpy as np

from repro.core.dbht import Assignments, DBHTResult, build_hierarchy
from repro.graphs import shortest_paths


def _adjacency(n: int, edges: np.ndarray) -> List[Set[int]]:
    adj: List[Set[int]] = [set() for _ in range(n)]
    for u, v in edges:
        adj[int(u)].add(int(v))
        adj[int(v)].add(int(u))
    return adj


def enumerate_triangles(n: int, edges: np.ndarray) -> List[Tuple[int, int, int]]:
    """All 3-cliques, each reported once as a sorted tuple."""
    adj = _adjacency(n, edges)
    out = []
    for u, v in edges:
        u, v = int(u), int(v)
        for w in adj[u] & adj[v]:
            if w > v and u < v:
                out.append((u, v, w))
    return sorted(out)


def _components(vertices: Set[int], adj: List[Set[int]],
                removed: Set[int]) -> List[Set[int]]:
    """Connected components of the induced subgraph on
    ``vertices - removed``."""
    todo = set(vertices) - removed
    comps = []
    while todo:
        start = next(iter(todo))
        comp = {start}
        stack = [start]
        while stack:
            x = stack.pop()
            for y in adj[x]:
                if y in todo and y not in comp:
                    comp.add(y)
                    stack.append(y)
        todo -= comp
        comps.append(comp)
    return comps


@dataclass
class GenericBubbleTree:
    """Bubble tree of an arbitrary maximal planar graph."""

    bubbles: List[Tuple[int, ...]]  # sorted vertex tuples, variable size
    parent: List[int]
    children: List[List[int]]
    sep_triangle: List[Optional[Tuple[int, int, int]]]
    root: int
    down: Optional[np.ndarray] = None  # parent -> child edge direction

    def n_bubbles(self) -> int:
        return len(self.bubbles)

    def vertex_memberships(self, n: int) -> List[List[int]]:
        mem: List[List[int]] = [[] for _ in range(n)]
        for b, verts in enumerate(self.bubbles):
            for v in verts:
                mem[v].append(b)
        return mem

    def subtree_vertices(self, b: int) -> Set[int]:
        out: Set[int] = set()
        stack = [b]
        while stack:
            x = stack.pop()
            out.update(self.bubbles[x])
            stack.extend(self.children[x])
        return out

    # ---- original quadratic direction computation -----------------------
    def compute_directions(self, S: np.ndarray, edges: np.ndarray) -> np.ndarray:
        n = S.shape[0]
        adj = _adjacency(n, edges)
        down = np.zeros(self.n_bubbles(), dtype=bool)
        for b in range(self.n_bubbles()):
            p = self.parent[b]
            if p == -1:
                continue
            tri = set(self.sep_triangle[b])
            interior = self.subtree_vertices(b) - tri
            inval = sum(S[x, u] for x in tri for u in adj[x] if u in interior)
            outval = sum(S[x, u] for x in tri for u in adj[x]
                         if u not in interior and u not in tri)
            down[b] = inval > outval
        self.down = down
        return down

    def out_degrees(self) -> np.ndarray:
        out = np.zeros(self.n_bubbles(), dtype=np.int64)
        for b in range(self.n_bubbles()):
            p = self.parent[b]
            if p == -1:
                continue
            if self.down[b]:
                out[p] += 1
            else:
                out[b] += 1
        return out

    def converging_bubbles(self) -> np.ndarray:
        return np.flatnonzero(self.out_degrees() == 0)

    def reachable_converging(self) -> np.ndarray:
        n_b = self.n_bubbles()
        cvg = self.converging_bubbles()
        succ: List[List[int]] = [[] for _ in range(n_b)]
        for b in range(n_b):
            p = self.parent[b]
            if p == -1:
                continue
            if self.down[b]:
                succ[p].append(b)
            else:
                succ[b].append(p)
        R = np.zeros((n_b, len(cvg)), dtype=bool)
        for k, b in enumerate(cvg):
            R[int(b), k] = True
        # exhaustive DFS per node (quadratic, like the original)
        for b in range(n_b):
            seen = set()
            stack = [b]
            while stack:
                x = stack.pop()
                if x in seen:
                    continue
                seen.add(x)
                stack.extend(succ[x])
            for x in seen:
                R[b] |= R[x]
        return R


def planar_bubble_tree(n: int, edges: np.ndarray) -> GenericBubbleTree:
    """Detect bubbles of a maximal planar graph from scratch.

    Cut the vertex set along every separating triangle (each separates the
    graph into exactly two sides, by planarity); the resulting pieces are
    the bubbles; pieces sharing a separating triangle are adjacent in the
    bubble tree.
    """
    adj = _adjacency(n, edges)
    all_vertices = set(range(n))
    triangles = enumerate_triangles(n, edges)
    separating = [t for t in triangles
                  if len(_components(all_vertices, adj, set(t))) > 1]
    pieces: List[Set[int]] = [set(all_vertices)]
    for t in separating:
        ts = set(t)
        nxt: List[Set[int]] = []
        for p in pieces:
            if ts <= p:
                comps = _components(p, adj, ts)
                if len(comps) > 1:
                    nxt.extend(c | ts for c in comps)
                    continue
            nxt.append(p)
        pieces = nxt
    bubbles = sorted(tuple(sorted(p)) for p in pieces)
    # adjacency: the two bubbles fully containing each separating triangle
    by_tri: Dict[FrozenSet[int], List[int]] = {}
    for t in separating:
        holders = [i for i, b in enumerate(bubbles) if set(t) <= set(b)]
        if len(holders) != 2:
            raise ValueError(
                f"separating triangle {t} contained in {len(holders)} bubbles"
            )
        by_tri[frozenset(t)] = holders
    # root at bubble 0, BFS to orient parents
    n_b = len(bubbles)
    parent = [-1] * n_b
    children: List[List[int]] = [[] for _ in range(n_b)]
    sep: List[Optional[Tuple[int, int, int]]] = [None] * n_b
    nbrs: List[List[Tuple[int, Tuple[int, int, int]]]] = [[] for _ in range(n_b)]
    for t, (a, b) in by_tri.items():
        tt = tuple(sorted(t))
        nbrs[a].append((b, tt))
        nbrs[b].append((a, tt))
    visited = [False] * n_b
    visited[0] = True
    queue = [0]
    while queue:
        x = queue.pop()
        for y, tt in nbrs[x]:
            if not visited[y]:
                visited[y] = True
                parent[y] = x
                sep[y] = tt
                children[x].append(y)
                queue.append(y)
    if not all(visited):
        raise ValueError("bubble adjacency is not connected")
    return GenericBubbleTree(bubbles=bubbles, parent=parent,
                             children=children, sep_triangle=sep, root=0)


# --------------------------------------------------------------- assignments
def assign_vertices_generic(S: np.ndarray, tree: GenericBubbleTree,
                            dist: np.ndarray) -> Assignments:
    """The original assignment rules with general bubble sizes.

    chi(v,b) = sum_{u in b} w(u,v) / (3(|b|-2));
    chi'(v,b) = sum_{u in b} w(u,v) / sum_{u',v' in b} w(u',v').

    Every sum runs in ascending ``u`` (as in ``repro.core.dbht``), scores
    are compared exactly, and ties go to the smallest bubble id.
    """
    if tree.down is None:
        raise RuntimeError("call compute_directions first")
    n = S.shape[0]
    cvg = tree.converging_bubbles()
    reach = tree.reachable_converging()
    mem = tree.vertex_memberships(n)

    group = np.full(n, -1, dtype=np.int64)
    best_chi = np.full(n, -np.inf)
    for b in cvg:
        verts = tree.bubbles[int(b)]
        norm = 3.0 * (len(verts) - 2)
        for v in verts:
            chi = sum(S[u, v] for u in verts if u != v) / norm
            if chi > best_chi[v]:
                best_chi[v] = chi
                group[v] = b

    vb0 = {int(b): np.flatnonzero(group == b) for b in cvg}
    for v in np.flatnonzero(group == -1):
        reachable = set()
        for b in mem[v]:
            reachable.update(int(cvg[k]) for k in np.flatnonzero(reach[b]))
        candidates = [b for b in sorted(reachable) if len(vb0[b]) > 0]
        if not candidates:
            candidates = [int(b) for b in cvg if len(vb0[int(b)]) > 0]
        best = None
        for b in candidates:
            lbar = sum(dist[u, v] for u in vb0[b]) / len(vb0[b])
            if best is None or lbar < best[0]:
                best = (lbar, b)
        group[v] = best[1]

    bubble = np.full(n, -1, dtype=np.int64)
    best_chi2 = np.full(n, -np.inf)
    denom = np.empty(tree.n_bubbles())
    for b in range(tree.n_bubbles()):
        verts = tree.bubbles[b]
        denom[b] = sum(S[verts[i], verts[j]] for i in range(len(verts))
                       for j in range(i + 1, len(verts)))
    for v in range(n):
        for b in mem[v]:
            verts = tree.bubbles[b]
            chi2 = sum(S[u, v] for u in verts if u != v) / denom[b]
            if chi2 > best_chi2[v]:
                best_chi2[v] = chi2
                bubble[v] = b
    return Assignments(group=group, bubble=bubble, converging=cvg)


def dbht_on_planar_graph(S: np.ndarray, D: np.ndarray,
                         edges: np.ndarray) -> DBHTResult:
    """Full original-style DBHT on any maximal planar graph (PMFG-DBHT)."""
    n = S.shape[0]
    tree = planar_bubble_tree(n, edges)
    tree.compute_directions(S, edges)
    w = D[edges[:, 0], edges[:, 1]]
    dist = shortest_paths.apsp(n, edges, w)
    assign = assign_vertices_generic(S, tree, dist)
    dendro = build_hierarchy(assign, dist)
    return DBHTResult(dendrogram=dendro, assignments=assign, apsp=dist)
