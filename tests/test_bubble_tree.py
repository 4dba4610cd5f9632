"""Bubble tree tests: structural invariants, the separation invariant from
Section V-A, and Algorithm 3 directions vs a brute-force BFS oracle that
mirrors the *original* quadratic DBHT computation."""
import numpy as np
import pytest

from repro.core.tmfg import tmfg


def bfs_levels(adj, src):
    """Unweighted BFS levels; the connectivity oracle of the
    separation test."""
    level = {src: 0}
    frontier = [src]
    while frontier:
        nxt = []
        for u in frontier:
            for v in adj.get(u, []):
                if v not in level:
                    level[v] = level[u] + 1
                    nxt.append(v)
        frontier = nxt
    return level


def test_bfs_levels():
    adj = {0: [1, 2], 1: [0, 3], 2: [0], 3: [1], 4: []}
    lv = bfs_levels(adj, 0)
    assert lv == {0: 0, 1: 1, 2: 1, 3: 2}


def rand_sim(n, seed):
    rng = np.random.default_rng(seed)
    S = rng.random((n, n))
    S = (S + S.T) / 2
    np.fill_diagonal(S, 1.0)
    return S


def build_tmfg(n, seed, prefix=1):
    S = rand_sim(n, seed)
    t = tmfg(S, prefix=prefix)
    return S, t


def subtree_vertices(tree, b):
    """All graph vertices in bubbles of the subtree rooted at b."""
    out = set()
    stack = [b]
    while stack:
        x = stack.pop()
        out.update(tree.bubbles[x])
        stack.extend(tree.children[x])
    return out


CASES = [(8, 0, 1), (15, 1, 1), (30, 2, 1), (15, 3, 4), (40, 4, 8), (60, 5, 12)]


class TestStructure:
    @pytest.mark.parametrize("n,seed,prefix", CASES)
    def test_bubble_count_and_size(self, n, seed, prefix):
        _, t = build_tmfg(n, seed, prefix)
        tree = t.tree
        assert tree.n_bubbles() == n - 3
        for b in tree.bubbles:
            assert len(b) == 4
            assert len(set(b)) == 4

    @pytest.mark.parametrize("n,seed,prefix", CASES)
    def test_is_tree(self, n, seed, prefix):
        _, t = build_tmfg(n, seed, prefix)
        tree = t.tree
        roots = [b for b in range(tree.n_bubbles()) if tree.parent[b] == -1]
        assert roots == [tree.root]
        # n-4 edges, all reachable from root
        d = tree.depths()
        assert np.all(d >= 0)
        n_edges = sum(1 for b in range(tree.n_bubbles()) if tree.parent[b] != -1)
        assert n_edges == tree.n_bubbles() - 1
        # parent/children consistency
        for b in range(tree.n_bubbles()):
            for c in tree.children[b]:
                assert tree.parent[c] == b

    @pytest.mark.parametrize("n,seed,prefix", CASES)
    def test_at_most_three_children_except_root(self, n, seed, prefix):
        """Invariant from Section V-A: each bubble has at most 3 children
        (root may have 4: one per face of its clique)."""
        _, t = build_tmfg(n, seed, prefix)
        tree = t.tree
        for b in range(tree.n_bubbles()):
            limit = 4 if b == tree.root else 3
            assert len(tree.children[b]) <= limit

    @pytest.mark.parametrize("n,seed,prefix", CASES)
    def test_separating_triangle_shared(self, n, seed, prefix):
        """The edge's triangle is exactly the 3 shared vertices of the two
        bubbles it connects."""
        _, t = build_tmfg(n, seed, prefix)
        tree = t.tree
        for b in range(tree.n_bubbles()):
            p = tree.parent[b]
            if p == -1:
                continue
            shared = set(tree.bubbles[b]) & set(tree.bubbles[p])
            assert set(tree.sep_triangle[b]) == shared
            assert len(shared) == 3

    @pytest.mark.parametrize("n,seed,prefix", CASES)
    def test_membership_covers_all_vertices(self, n, seed, prefix):
        _, t = build_tmfg(n, seed, prefix)
        mem = t.tree.vertex_memberships(n)
        assert all(len(m) >= 1 for m in mem)
        assert sum(len(m) for m in mem) == 4 * (n - 3)


class TestSeparationInvariant:
    @pytest.mark.parametrize("n,seed,prefix", CASES)
    def test_descendants_in_interior(self, n, seed, prefix):
        """Removing a tree edge's separating triangle from the TMFG must
        disconnect exactly the subtree's vertices from the rest."""
        _, t = build_tmfg(n, seed, prefix)
        tree = t.tree
        adj = {v: [] for v in range(n)}
        for u, v in t.edges:
            adj[int(u)].append(int(v))
            adj[int(v)].append(int(u))
        for b in range(tree.n_bubbles()):
            p = tree.parent[b]
            if p == -1:
                continue
            tri = set(tree.sep_triangle[b])
            interior = subtree_vertices(tree, b) - tri
            exterior = set(range(n)) - interior - tri
            if not interior or not exterior:
                continue
            # BFS in G \ tri from an interior vertex must stay interior
            adj_cut = {v: [w for w in ws if w not in tri]
                       for v, ws in adj.items() if v not in tri}
            start = next(iter(interior))
            reached = set(bfs_levels(adj_cut, start))
            assert reached == interior, (
                f"edge ({b},{p}): interior mismatch"
            )


def brute_force_directions(S, t):
    """The original DBHT direction computation: per separating triangle,
    BFS to find interior/exterior, then sum connecting edge weights."""
    tree = t.tree
    n = t.n
    adj = {v: [] for v in range(n)}
    for u, v in t.edges:
        adj[int(u)].append(int(v))
        adj[int(v)].append(int(u))
    down = np.zeros(tree.n_bubbles(), dtype=bool)
    for b in range(tree.n_bubbles()):
        p = tree.parent[b]
        if p == -1:
            continue
        tri = set(tree.sep_triangle[b])
        interior = subtree_vertices(tree, b) - tri
        inval = sum(S[x, u] for x in tri for u in adj[x] if u in interior)
        outval = sum(S[x, u] for x in tri for u in adj[x]
                     if u not in interior and u not in tri)
        down[b] = inval > outval
    return down


class TestDirections:
    @pytest.mark.parametrize("n,seed,prefix", CASES)
    def test_matches_brute_force(self, n, seed, prefix):
        S, t = build_tmfg(n, seed, prefix)
        fast = t.tree.compute_directions(S, t.edges)
        brute = brute_force_directions(S, t)
        assert np.array_equal(fast, brute)

    @pytest.mark.parametrize("n,seed,prefix", CASES[:3])
    def test_converging_bubbles_exist(self, n, seed, prefix):
        S, t = build_tmfg(n, seed, prefix)
        t.tree.compute_directions(S, t.edges)
        cvg = t.tree.converging_bubbles()
        assert len(cvg) >= 1
        out = t.tree.out_degrees()
        assert np.all(out[cvg] == 0)
        # total out-degrees == number of tree edges
        assert out.sum() == t.tree.n_bubbles() - 1

    @pytest.mark.parametrize("n,seed,prefix", CASES)
    def test_reachability_vs_brute_force(self, n, seed, prefix):
        S, t = build_tmfg(n, seed, prefix)
        tree = t.tree
        tree.compute_directions(S, t.edges)
        R = tree.reachable_converging()
        cvg = tree.converging_bubbles()
        # brute force: follow directed edges exhaustively from each node
        succ = [[] for _ in range(tree.n_bubbles())]
        for b in range(tree.n_bubbles()):
            p = tree.parent[b]
            if p == -1:
                continue
            if tree.down[b]:
                succ[p].append(b)
            else:
                succ[b].append(p)
        for b in range(tree.n_bubbles()):
            seen = set()
            stack = [b]
            while stack:
                x = stack.pop()
                if x in seen:
                    continue
                seen.add(x)
                stack.extend(succ[x])
            expected = {int(c) for c in cvg if c in seen}
            got = {int(cvg[k]) for k in np.flatnonzero(R[b])}
            assert got == expected

    def test_every_node_reaches_a_converging_bubble(self):
        S, t = build_tmfg(50, 9, 5)
        t.tree.compute_directions(S, t.edges)
        R = t.tree.reachable_converging()
        assert np.all(R.sum(axis=1) >= 1)

    def test_single_bubble_tree(self):
        S, t = build_tmfg(4, 0)
        t.tree.compute_directions(S, t.edges)
        assert t.tree.converging_bubbles().tolist() == [0]
        assert t.tree.reachable_converging().tolist() == [[True]]
