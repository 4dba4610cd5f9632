"""Tests for the shared experiment harness (repro.bench) that the jobs
are thin wrappers over."""
import numpy as np
import pytest

from repro.bench import (beta_grid, markdown_table, prepare, run_kmeans,
                         run_kmeans_s, run_linkage, run_pmfg_dbht,
                         run_seq_tdbht)
from repro.datasets import latent_curve_dataset, znorm_rows


@pytest.fixture(scope="module")
def tiny():
    ds = latent_curve_dataset("tiny", 40, 60, 3, noise=0.4, shared=0.2,
                              outlier_frac=0.0, seed=0)
    S, D, k = prepare(ds)
    return ds, S, D, k


class TestRunners:
    def test_seq_tdbht(self, tiny):
        ds, S, D, k = tiny
        r = run_seq_tdbht(ds, S, D, k)
        assert r["time"] > 0 and -1 <= r["ari"] <= 1
        assert set(r["steps"]) == {"tmfg", "apsp", "bubble-tree", "hierarchy"}
        assert r["rounds"] == ds.n - 4  # prefix=1

    def test_pmfg_dbht(self, tiny):
        ds, S, D, k = tiny
        r = run_pmfg_dbht(ds, S, D, k, time_budget_s=60)
        assert r is not None and r["ari"] > 0.3

    def test_pmfg_timeout(self, tiny):
        ds, S, D, k = tiny
        assert run_pmfg_dbht(ds, S, D, k, time_budget_s=0.0) is None

    @pytest.mark.parametrize("method", ["complete", "average"])
    def test_linkage(self, tiny, method):
        ds, S, D, k = tiny
        r = run_linkage(ds, S, D, k, method)
        assert -1 <= r["ari"] <= 1

    def test_kmeans(self, tiny):
        ds, S, D, k = tiny
        r = run_kmeans(ds, k)
        assert r["ari"] > 0.3  # easy data

    def test_kmeans_s_fixed_beta(self, tiny):
        ds, S, D, k = tiny
        r = run_kmeans_s(ds, k, beta=10)
        assert r["beta"] == 10

    def test_kmeans_s_sweep_picks_best(self, tiny):
        ds, S, D, k = tiny
        r = run_kmeans_s(ds, k)
        assert r["beta"] in r["scores"]
        assert r["ari"] == max(r["scores"].values())


class TestHelpers:
    def test_znorm(self):
        X = np.array([[1.0, 2.0, 3.0], [5.0, 5.0, 5.0]])
        Z = znorm_rows(X)
        assert np.allclose(Z.mean(1), 0)
        assert np.allclose(Z[0].std(), 1)
        assert np.allclose(Z[1], 0)  # constant row guarded

    def test_beta_grid(self):
        g = beta_grid(100)
        assert all(b <= 99 for b in g)
        assert 10 in g
        assert g == sorted(set(g))

    def test_markdown_table(self):
        t = markdown_table(["a", "b"], [(1, 2.5), ("x", "y")])
        lines = t.split("\n")
        assert lines[0] == "| a | b |"
        assert lines[1] == "|---|---|"
        assert "2.500" in lines[2]
        assert "| x | y |" == lines[3]
