"""End-to-end pipeline: PAR-TDBHT (Spark APSP) and SEQ-TDBHT (driver)
produce bit-identical outputs; timing breakdown keys match Figure 5's steps."""
import numpy as np
import pytest

from repro.core.metrics import ari
from repro.datasets import correlation_matrices, latent_curve_dataset
from repro.spark.pipeline import par_tdbht, seq_tdbht


@pytest.fixture(scope="module")
def data():
    ds = latent_curve_dataset("pipe", 60, 80, 4, noise=0.5, shared=0.3,
                              outlier_frac=0.02, seed=0)
    S, D = correlation_matrices(ds.X)
    return ds, S, D


def assert_identical(a, b):
    """Every output of two runs agrees bit for bit."""
    assert np.array_equal(a.tmfg.edges, b.tmfg.edges)
    assert np.array_equal(a.result.apsp, b.result.apsp)
    for name in ("group", "bubble", "converging"):
        assert np.array_equal(getattr(a.result.assignments, name),
                              getattr(b.result.assignments, name))
    assert np.array_equal(a.result.dendrogram.merges,
                          b.result.dendrogram.merges)


@pytest.mark.parametrize("prefix", [1, 8, 1000])  # 1000: prefix >= n
def test_par_equals_seq(spark, data, prefix):
    ds, S, D = data
    assert_identical(par_tdbht(spark, S, D, prefix=prefix),
                     seq_tdbht(S, D, prefix=prefix))


def test_times_breakdown_keys(spark, data):
    _, S, D = data
    run = par_tdbht(spark, S, D, prefix=8)
    assert set(run.times) == {"tmfg", "apsp", "bubble-tree", "hierarchy"}
    assert all(v >= 0 for v in run.times.values())
    assert run.total == pytest.approx(sum(run.times.values()))


def test_quality_on_easy_data(spark, data):
    ds, S, D = data
    run = par_tdbht(spark, S, D, prefix=8)
    labels = run.result.dendrogram.cut_k(ds.n_classes)
    assert ari(ds.y, labels) > 0.5


def test_partitions_dont_change_result(spark, data):
    """1 APSP task, several, and more tasks than sources (empty ones)."""
    ds, S, D = data
    seq = seq_tdbht(S, D, prefix=8)
    for parts in (1, 2, 12, ds.n + 5):
        assert_identical(par_tdbht(spark, S, D, prefix=8, partitions=parts),
                         seq)


def _duplicated(n):
    """Series repeated in pairs: S has identical rows, hence many ties."""
    ds = latent_curve_dataset("dup", (n + 1) // 2, 40, 2, seed=3)
    return correlation_matrices(np.repeat(ds.X, 2, axis=0)[:n])


def _quantized(n):
    """S rounded to one decimal (D follows S): many exactly tied scores."""
    ds = latent_curve_dataset("quant", n, 40, 2, noise=1.0, seed=4)
    S = np.round(correlation_matrices(ds.X)[0], 1)
    return S, np.sqrt(np.maximum(2.0 * (1.0 - S), 0.0))


@pytest.mark.parametrize("prefix", [1, 3, 100])  # 100: prefix >= n
@pytest.mark.parametrize("n", [4, 7, 30])
@pytest.mark.parametrize("make", [_duplicated, _quantized])
def test_tie_heavy_inputs(spark, make, n, prefix):
    S, D = make(n)
    seq = seq_tdbht(S, D, prefix=prefix)
    par = par_tdbht(spark, S, D, prefix=prefix, partitions=3)
    seq.result.dendrogram.validate()
    assert_identical(par, seq)


def test_d_shape_must_match_s(spark, data):
    _, S, D = data
    for run in (lambda: seq_tdbht(S, D[:-1, :-1]),
                lambda: par_tdbht(spark, S, D[:, :-1])):
        with pytest.raises(ValueError, match="D must have S's shape"):
            run()
