"""Distributed APSP: dense row blocks equal the driver Dijkstra bit for bit."""
import numpy as np
import pytest

from repro.core.tmfg import tmfg
from repro.graphs.shortest_paths import apsp
from repro.spark.apsp_spark import apsp_matrix


@pytest.fixture(scope="module")
def graph():
    rng = np.random.default_rng(0)
    n = 40
    S = rng.random((n, n))
    S = (S + S.T) / 2
    t = tmfg(S)
    D = np.sqrt(2 * (1 - np.clip(S, -1, 1)))
    w = D[t.edges[:, 0], t.edges[:, 1]]
    return n, t.edges, w


def test_matches_driver(spark, graph):
    n, edges, w = graph
    got = apsp_matrix(spark, n, edges, w)
    assert got.dtype == np.float64
    assert np.array_equal(got, apsp(n, edges, w))


def test_df_shape_and_zero_diag(spark, graph):
    """All n * n source/target distances come back, each self-distance 0."""
    n, edges, w = graph
    M = apsp_matrix(spark, n, edges, w)
    assert M.shape == (n, n)
    assert np.all(np.diag(M) == 0.0)
    assert np.all(np.isfinite(M))


def test_symmetric(spark, graph):
    n, edges, w = graph
    M = apsp_matrix(spark, n, edges, w)
    assert np.allclose(M, M.T, rtol=1e-12, atol=0)


def test_partitions_dont_change_result(spark, graph):
    """More partitions than sources leaves some empty; none changes a bit."""
    n, edges, w = graph
    ref = apsp_matrix(spark, n, edges, w, partitions=1)
    for parts in (2, 13, n + 7):
        assert np.array_equal(apsp_matrix(spark, n, edges, w, partitions=parts),
                              ref)
