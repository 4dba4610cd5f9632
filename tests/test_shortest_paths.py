"""Dijkstra/APSP substrate vs a brute-force Floyd-Warshall oracle."""
import numpy as np
import pytest

from repro.core.tmfg import tmfg
from repro.graphs.shortest_paths import apsp, build_adjacency, dijkstra


def floyd_warshall(n, edges, weights):
    d = np.full((n, n), np.inf)
    np.fill_diagonal(d, 0.0)
    for (u, v), w in zip(edges, weights):
        d[u, v] = min(d[u, v], w)
        d[v, u] = min(d[v, u], w)
    for k in range(n):
        d = np.minimum(d, d[:, [k]] + d[[k], :])
    return d


def random_graph(n, m, seed):
    rng = np.random.default_rng(seed)
    edges = set()
    while len(edges) < m:
        u, v = rng.integers(0, n, 2)
        if u != v:
            edges.add((min(u, v), max(u, v)))
    edges = np.array(sorted(edges))
    weights = rng.random(len(edges)) + 0.01
    return edges, weights


class TestDijkstra:
    @pytest.mark.parametrize("n,m,seed", [(5, 6, 0), (10, 20, 1), (30, 60, 2),
                                          (50, 140, 3), (25, 24, 4)])
    def test_matches_floyd_warshall(self, n, m, seed):
        edges, weights = random_graph(n, m, seed)
        expected = floyd_warshall(n, edges, weights)
        got = apsp(n, edges, weights)
        assert np.allclose(got, expected, equal_nan=True)

    def test_disconnected_inf(self):
        edges = np.array([[0, 1], [2, 3]])
        weights = np.array([1.0, 2.0])
        d = dijkstra(build_adjacency(4, edges, weights), 0)
        assert d[1] == 1.0 and np.isinf(d[2]) and np.isinf(d[3])

    def test_source_zero(self):
        edges, weights = random_graph(20, 40, 5)
        adj = build_adjacency(20, edges, weights)
        for s in range(5):
            assert dijkstra(adj, s)[s] == 0.0

    def test_symmetry_undirected(self):
        edges, weights = random_graph(25, 60, 6)
        d = apsp(25, edges, weights)
        assert np.allclose(d, d.T)

    def test_triangle_inequality(self):
        edges, weights = random_graph(20, 50, 7)
        d = apsp(20, edges, weights)
        for k in range(20):
            assert np.all(d <= d[:, [k]] + d[[k], :] + 1e-9)

    def test_selected_sources(self):
        edges, weights = random_graph(15, 30, 8)
        full = apsp(15, edges, weights)
        part = apsp(15, edges, weights, sources=[3, 7, 11])
        assert np.allclose(part, full[[3, 7, 11]])


class TestOnTMFG:
    @pytest.mark.parametrize("n,seed", [(20, 0), (50, 1)])
    def test_tmfg_apsp_finite(self, n, seed):
        rng = np.random.default_rng(seed)
        S = rng.random((n, n))
        S = (S + S.T) / 2
        t = tmfg(S)
        D = np.sqrt(2 * (1 - np.clip(S, -1, 1)))
        w = D[t.edges[:, 0], t.edges[:, 1]]
        d = apsp(n, t.edges, w)
        assert np.all(np.isfinite(d)), "TMFG is connected"
        # direct edges are at most the graph distance, and the shortest
        # path can't exceed the direct edge weight
        for (u, v), wd in zip(t.edges[:20], w[:20]):
            assert d[u, v] <= wd + 1e-12
