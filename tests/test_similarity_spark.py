"""Distributed correlation: matches numpy corrcoef and the DuckDB oracle."""
import numpy as np
import pandas as pd
import pytest

from repro.datasets import correlation_matrices, latent_curve_dataset
from repro.oracle import assert_equivalent
from repro.spark.similarity import correlation_df, correlation_matrices_spark


@pytest.fixture(scope="module")
def ds():
    return latent_curve_dataset("t", 30, 60, 3, seed=0)


def test_matches_driver(spark, ds):
    S_d, D_d = correlation_matrices(ds.X)
    S_s, D_s = correlation_matrices_spark(spark, ds.X)
    assert np.allclose(S_s, S_d, atol=1e-12)
    assert np.allclose(D_s, D_d, atol=1e-12)


def test_matches_numpy_corrcoef(spark, ds):
    S_s, _ = correlation_matrices_spark(spark, ds.X)
    assert np.allclose(S_s, np.corrcoef(ds.X), atol=1e-10)


def test_row_count_and_diag(spark, ds):
    df = correlation_df(spark, ds.X)
    n = ds.n
    assert df.count() == n * n
    diag = df.filter("i = j").toPandas()
    assert np.allclose(diag["sim"], 1.0)
    assert np.allclose(diag["dis"], 0.0, atol=1e-7)


def test_oracle_correlation(spark, ds):
    """The distributed correlation equals DuckDB's CORR over the long
    format (the canonical result-equality check for this Spark job)."""
    n, L = 12, 40
    X = ds.X[:n, :L]
    long = pd.DataFrame({
        "series": np.repeat(np.arange(n), L),
        "t": np.tile(np.arange(L), n),
        "val": X.ravel(),
    })
    got = (
        correlation_df(spark, X)
        .filter("i < j")
        .selectExpr("i", "j", "round(sim, 6) AS sim")
    )
    assert_equivalent(
        got,
        """
        SELECT a.series AS i, b.series AS j,
               ROUND(CORR(a.val, b.val), 6) AS sim
        FROM long a JOIN long b ON a.t = b.t AND a.series < b.series
        GROUP BY 1, 2
        """,
        long=long,
    )
