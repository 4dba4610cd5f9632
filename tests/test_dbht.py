"""DBHT tests: assignment rules vs their definitions, hierarchy/height
structure (Section V-D), and end-to-end clustering sanity."""
import numpy as np
import pytest

from repro.core.dbht import assign_vertices, dbht, tmfg_apsp
from repro.core.metrics import ari
from repro.core.tmfg import tmfg
from repro.datasets import correlation_matrices, latent_curve_dataset


def make_case(n, seed, prefix=1):
    rng = np.random.default_rng(seed)
    S = rng.random((n, n))
    S = (S + S.T) / 2
    np.fill_diagonal(S, 1.0)
    D = np.sqrt(2 * (1 - np.clip(S, -1, 1)))
    t = tmfg(S, prefix=prefix)
    return S, D, t


def make_quantized_case(n, seed, prefix):
    """Uniform S rounded to one decimal: many exactly tied scores."""
    rng = np.random.default_rng(seed)
    S = rng.random((n, n))
    S = np.round((S + S.T) / 2, 1)
    np.fill_diagonal(S, 1.0)
    return S, np.sqrt(2 * (1 - S)), tmfg(S, prefix=prefix)


def make_correlation_case(n, seed, prefix):
    """Correlations of clustered series: several converging bubbles, so
    the chi and L-bar choices have more than one candidate."""
    ds = latent_curve_dataset("defs", n, 60, 4, seed=seed)
    S, D = correlation_matrices(ds.X)
    return S, D, tmfg(S, prefix=prefix)


def make_block_case(n, k, prefix):
    """Two similarity values (0.8 inside each of k blocks, 0.2 across):
    exactly tied chi' scores, so tie-breaking decides."""
    label = np.arange(n) % k
    S = np.where(label[:, None] == label[None, :], 0.8, 0.2)
    np.fill_diagonal(S, 1.0)
    return S, np.sqrt(2 * (1 - S)), tmfg(S, prefix=prefix)


CASES = [(8, 0, 1), (15, 1, 1), (30, 2, 4), (60, 3, 8)]
HARD_CASES = [
    pytest.param(make_quantized_case, (12, 1, 1), id="quantized-12"),
    pytest.param(make_quantized_case, (40, 2, 4), id="quantized-40"),
    pytest.param(make_correlation_case, (40, 0, 1), id="correlation-40"),
    pytest.param(make_correlation_case, (60, 1, 4), id="correlation-60"),
    pytest.param(make_correlation_case, (80, 3, 8), id="correlation-80"),
    pytest.param(make_block_case, (20, 4, 2), id="blocks-20"),
    pytest.param(make_block_case, (30, 3, 1), id="blocks-30"),
]


def _chi(S, verts, v):
    """chi(v, b): S[u, v] over the other members u of b, ascending u."""
    total = 0.0
    for u in sorted(verts):
        if u != v:
            total += S[u, v]
    return total


def check_chi_argmax(S, t, a):
    """Vertices inside converging bubbles pick the converging bubble
    maximizing chi(v,b) = sum_{u in b} S[u,v] (summed in ascending u,
    compared exactly), ties to the smallest bubble."""
    cvg = [int(b) for b in a.converging]
    mem = t.tree.vertex_memberships(t.n)
    for v in range(t.n):
        in_cvg = [b for b in mem[v] if b in cvg]
        if not in_cvg:
            continue
        chis = {b: _chi(S, t.tree.bubbles[b], v) for b in in_cvg}
        best = max(chis.values())
        assert a.group[v] == min(b for b in in_cvg if chis[b] == best)


def check_lbar_argmin(t, a, dist):
    """Vertices in no converging bubble pick the reachable converging
    bubble minimizing the mean of dist[u, v] over its first-level members
    u (summed in ascending u), ties to the smallest bubble."""
    tree = t.tree
    cvg = [int(b) for b in a.converging]
    reach = tree.reachable_converging()
    mem = tree.vertex_memberships(t.n)
    first = [v for v in range(t.n) if any(b in cvg for b in mem[v])]
    vb0 = {b: [u for u in first if a.group[u] == b] for b in cvg}
    for v in range(t.n):
        if v in first:
            continue
        cands = sorted({cvg[k] for b in mem[v] for k in np.flatnonzero(reach[b])
                        if vb0[cvg[k]]})
        cands = cands or [b for b in cvg if vb0[b]]
        lbar = {}
        for b in cands:
            total = 0.0
            for u in vb0[b]:
                total += dist[u, v]
            lbar[b] = total / len(vb0[b])
        best = min(lbar.values())
        assert a.group[v] == min(b for b in cands if lbar[b] == best)


def check_chi_prime_argmax(S, t, a):
    """Every vertex picks the bubble maximizing chi(v,b) / (sum of b's six
    edges, in member order), ties to the smallest bubble."""
    mem = t.tree.vertex_memberships(t.n)
    for v in range(t.n):
        scores = {}
        for b in mem[v]:
            verts = t.tree.bubbles[b]
            den = 0.0
            for i in range(4):
                for j in range(i + 1, 4):
                    den += S[verts[i], verts[j]]
            scores[b] = _chi(S, verts, v) / den
        best = max(scores.values())
        assert a.bubble[v] == min(b for b in mem[v] if scores[b] == best)


class TestAssignments:
    @pytest.mark.parametrize("n,seed,prefix", CASES)
    def test_groups_are_converging_bubbles(self, n, seed, prefix):
        S, D, t = make_case(n, seed, prefix)
        dist = tmfg_apsp(D, t)
        a = assign_vertices(S, t, dist)
        cvg = set(int(b) for b in a.converging)
        assert set(np.unique(a.group)) <= cvg
        assert np.all(a.group >= 0)

    @pytest.mark.parametrize("n,seed,prefix", CASES)
    def test_bubble_contains_vertex(self, n, seed, prefix):
        S, D, t = make_case(n, seed, prefix)
        dist = tmfg_apsp(D, t)
        a = assign_vertices(S, t, dist)
        for v in range(n):
            assert v in t.tree.bubbles[a.bubble[v]]

    @pytest.mark.parametrize("n,seed,prefix", CASES)
    def test_chi_argmax_definition(self, n, seed, prefix):
        S, D, t = make_case(n, seed, prefix)
        check_chi_argmax(S, t, assign_vertices(S, t, tmfg_apsp(D, t)))

    @pytest.mark.parametrize("n,seed,prefix", CASES)
    def test_lbar_argmin_definition(self, n, seed, prefix):
        S, D, t = make_case(n, seed, prefix)
        dist = tmfg_apsp(D, t)
        check_lbar_argmin(t, assign_vertices(S, t, dist), dist)

    @pytest.mark.parametrize("n,seed,prefix", CASES)
    def test_chi_prime_argmax_definition(self, n, seed, prefix):
        S, D, t = make_case(n, seed, prefix)
        check_chi_prime_argmax(S, t, assign_vertices(S, t, tmfg_apsp(D, t)))

    @pytest.mark.parametrize("make,args", HARD_CASES)
    def test_definitions_on_hard_inputs(self, make, args):
        S, D, t = make(*args)
        dist = tmfg_apsp(D, t)
        a = assign_vertices(S, t, dist)
        if make is not make_quantized_case:
            assert len(a.converging) > 1  # the choices are not forced
        check_chi_argmax(S, t, a)
        check_lbar_argmin(t, a, dist)
        check_chi_prime_argmax(S, t, a)

    def test_deterministic(self):
        S, D, t = make_case(40, 4, 5)
        dist = tmfg_apsp(D, t)
        a1 = assign_vertices(S, t, dist)
        a2 = assign_vertices(S, t, dist)
        assert np.array_equal(a1.group, a2.group)
        assert np.array_equal(a1.bubble, a2.bubble)


class TestHierarchy:
    @pytest.mark.parametrize("n,seed,prefix", CASES)
    def test_valid_full_dendrogram(self, n, seed, prefix):
        S, D, t = make_case(n, seed, prefix)
        res = dbht(S, D, t)
        res.dendrogram.validate()
        assert res.dendrogram.n_leaves == n

    @pytest.mark.parametrize("n,seed,prefix", CASES)
    def test_group_heights_ladder(self, n, seed, prefix):
        """Within each group the internal node heights are exactly
        {1/(n_b-1), ..., 1/2, 1} (Section V-D, Aste height assignment)."""
        S, D, t = make_case(n, seed, prefix)
        res = dbht(S, D, t)
        dendro = res.dendrogram
        groups = np.unique(res.assignments.group)
        heights_in_unit = sorted(
            h for h in dendro.merges[:, 2] if h <= 1.0 + 1e-12
        )
        expected = sorted(
            1.0 / (nb - 1 - i)
            for g in groups
            for nb in [(res.assignments.group == g).sum()]
            for i in range(nb - 1)
        )
        assert np.allclose(heights_in_unit, expected)

    @pytest.mark.parametrize("n,seed,prefix", CASES)
    def test_top_heights_are_converging_counts(self, n, seed, prefix):
        S, D, t = make_case(n, seed, prefix)
        res = dbht(S, D, t)
        n_groups = len(np.unique(res.assignments.group))
        top = sorted(h for h in res.dendrogram.merges[:, 2] if h > 1.0 + 1e-12)
        assert len(top) == max(0, n_groups - 1)
        if top:
            assert top[-1] == n_groups  # root counts all groups
            assert all(float(h).is_integer() for h in top)

    def test_cut_at_group_count_recovers_groups(self):
        """Cutting just below the inter-group level yields the group
        partition itself."""
        S, D, t = make_case(50, 5, 4)
        res = dbht(S, D, t)
        n_groups = len(np.unique(res.assignments.group))
        if n_groups > 1:
            labels = res.dendrogram.cut_k(n_groups)
            assert ari(res.assignments.group, labels) == pytest.approx(1.0)


class TestValidation:
    def test_d_shape_must_match_tmfg(self):
        S, D, t = make_case(10, 0)
        with pytest.raises(ValueError, match=r"D must be \(10, 10\)"):
            tmfg_apsp(D[:9, :9], t)
        with pytest.raises(ValueError, match=r"D must be \(10, 10\)"):
            tmfg_apsp(np.pad(D, ((0, 1), (0, 1))), t)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_d_edge_weight_must_be_finite(self, bad):
        S, D, t = make_case(10, 0)
        u, v = t.edges[3]
        D[u, v] = D[v, u] = bad
        with pytest.raises(ValueError, match="finite on TMFG edges"):
            tmfg_apsp(D, t)

    def test_d_edge_weight_must_be_nonnegative(self):
        S, D, t = make_case(10, 0)
        u, v = t.edges[3]
        D[u, v] = D[v, u] = -0.5
        with pytest.raises(ValueError, match="nonnegative on TMFG edges"):
            tmfg_apsp(D, t)


class TestEndToEnd:
    def test_recovers_clear_clusters(self):
        ds = latent_curve_dataset("easy", 80, 100, 4, noise=0.3, shared=0.2,
                                  outlier_frac=0.0, seed=0)
        S, D = correlation_matrices(ds.X)
        t = tmfg(S, prefix=1)
        res = dbht(S, D, t)
        labels = res.dendrogram.cut_k(4)
        assert ari(ds.y, labels) > 0.8

    @pytest.mark.parametrize("prefix", [1, 5, 20])
    def test_prefix_variants_all_valid(self, prefix):
        ds = latent_curve_dataset("med", 70, 80, 3, noise=0.8, seed=1)
        S, D = correlation_matrices(ds.X)
        res = dbht(S, D, tmfg(S, prefix=prefix))
        res.dendrogram.validate()
        labels = res.dendrogram.cut_k(3)
        assert len(np.unique(labels)) == 3

    def test_n4_minimal(self):
        S, D, t = make_case(4, 0)
        res = dbht(S, D, t)
        res.dendrogram.validate()
        assert res.dendrogram.cut_k(2).shape == (4,)
