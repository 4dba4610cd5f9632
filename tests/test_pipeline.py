"""End-to-end pipeline: PAR-TDBHT (Spark) vs SEQ-TDBHT (driver) produce
identical dendrograms; timing breakdown keys match Figure 5's steps."""
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


@pytest.mark.parametrize("prefix", [1, 8, 1000])  # 1000: prefix >= n
def test_par_equals_seq(spark, data, prefix):
    ds, S, D = data
    par = par_tdbht(spark, S, D, prefix=prefix)
    seq = seq_tdbht(S, D, prefix=prefix)
    assert np.array_equal(par.tmfg.edges, seq.tmfg.edges)
    assert np.array_equal(par.result.assignments.group,
                          seq.result.assignments.group)
    assert np.array_equal(par.result.assignments.bubble,
                          seq.result.assignments.bubble)
    assert np.allclose(par.result.dendrogram.merges,
                       seq.result.dendrogram.merges)


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
    _, S, D = data
    a = par_tdbht(spark, S, D, prefix=8, partitions=2)
    b = par_tdbht(spark, S, D, prefix=8, partitions=12)
    assert np.allclose(a.result.dendrogram.merges, b.result.dendrogram.merges)
