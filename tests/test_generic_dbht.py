"""Generic (original-style) DBHT vs the TMFG-optimized fast path.

On TMFG inputs the from-scratch bubble detection, quadratic direction
computation, and general assignment formulas must reproduce the fast
path exactly (chi differs only by the constant 1/6 normalization, which
cannot change any argmax). This cross-validates both implementations.
"""
import numpy as np
import pytest

from repro.core.dbht import dbht
from repro.core.generic_dbht import (dbht_on_planar_graph,
                                     enumerate_triangles, planar_bubble_tree)
from repro.core.pmfg import pmfg
from repro.core.tmfg import tmfg
from tests.test_dbht import HARD_CASES as DBHT_HARD_CASES


def rand_sim(n, seed):
    rng = np.random.default_rng(seed)
    S = rng.random((n, n))
    S = (S + S.T) / 2
    np.fill_diagonal(S, 1.0)
    return S


CASES = [(10, 0, 1), (20, 1, 1), (35, 2, 4), (50, 3, 8)]


def rand_case(n, seed, prefix):
    S = rand_sim(n, seed)
    return S, np.sqrt(2 * (1 - np.clip(S, -1, 1))), tmfg(S, prefix=prefix)


# Random S, then quantized S (many exactly tied scores) and correlation
# inputs with several converging bubbles. Exactly tied scores go to the
# smallest bubble id, and the two trees number bubbles differently, so
# the two-valued block inputs (ties across bubbles) are left out.
EQUIVALENCE_CASES = [
    pytest.param(rand_case, c, id="-".join(map(str, c))) for c in CASES
] + [p for p in DBHT_HARD_CASES if not p.id.startswith("blocks")]


class TestTriangles:
    def test_k4(self):
        edges = np.array([(i, j) for i in range(4) for j in range(i + 1, 4)])
        assert enumerate_triangles(4, edges) == [
            (0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)]

    @pytest.mark.parametrize("n,seed,prefix", CASES)
    def test_tmfg_triangle_count(self, n, seed, prefix):
        """A maximal planar graph built by TMFG has 3n-8 triangles when
        every 3-clique bounds a face or separates (n-4 separating + 2n-4
        faces ... ); just check count >= faces = 2n-4."""
        t = tmfg(rand_sim(n, seed), prefix=prefix)
        tris = enumerate_triangles(n, t.edges)
        assert len(tris) >= 2 * n - 4


class TestBubbleDetection:
    @pytest.mark.parametrize("n,seed,prefix", CASES)
    def test_matches_incremental_tree(self, n, seed, prefix):
        """From-scratch bubble detection == bubbles built during TMFG."""
        S = rand_sim(n, seed)
        t = tmfg(S, prefix=prefix)
        gen = planar_bubble_tree(n, t.edges)
        assert sorted(gen.bubbles) == sorted(t.tree.bubbles)
        # same adjacency structure (as unordered edges with triangles)
        fast_edges = {
            frozenset((tuple(sorted(t.tree.bubbles[b])),
                       tuple(sorted(t.tree.bubbles[t.tree.parent[b]])))):
            t.tree.sep_triangle[b]
            for b in range(t.tree.n_bubbles()) if t.tree.parent[b] != -1
        }
        gen_edges = {
            frozenset((gen.bubbles[b], gen.bubbles[gen.parent[b]])):
            gen.sep_triangle[b]
            for b in range(gen.n_bubbles()) if gen.parent[b] != -1
        }
        assert fast_edges == gen_edges

    def test_pmfg_bubbles_cover_graph(self):
        S = rand_sim(25, 4)
        e = pmfg(S)
        gen = planar_bubble_tree(25, e)
        assert set().union(*[set(b) for b in gen.bubbles]) == set(range(25))
        for b in gen.bubbles:
            assert len(b) >= 4


class TestFullEquivalenceOnTMFG:
    @pytest.mark.parametrize("make,args", EQUIVALENCE_CASES)
    def test_same_assignments_and_hierarchy(self, make, args):
        """Generic DBHT on a TMFG == the TMFG-optimized path, exactly.

        Bubble *numbering* differs between the two trees (and the height
        assignment sorts by bubble id), so assignments are compared via
        bubble vertex sets, and the hierarchy is compared after remapping
        the generic bubble ids onto the fast tree's numbering.
        """
        from repro.core.dbht import build_hierarchy
        from repro.core.dbht import Assignments as A

        S, D, t = make(*args)
        n = t.n
        fast = dbht(S, D, t)
        gen_tree = planar_bubble_tree(n, t.edges)
        gen = dbht_on_planar_graph(S, D, t.edges)

        def canon(assign, tree_bubbles):
            g = [tuple(tree_bubbles[b]) for b in assign.group]
            q = [tuple(tree_bubbles[b]) for b in assign.bubble]
            return g, q

        g1, q1 = canon(fast.assignments, t.tree.bubbles)
        g2, q2 = canon(gen.assignments, gen_tree.bubbles)
        assert g1 == g2
        assert q1 == q2
        # remap generic bubble ids -> fast tree ids, rebuild, compare exactly
        to_fast = {i: t.tree.bubbles.index(b)
                   for i, b in enumerate(gen_tree.bubbles)}
        remapped = A(
            group=np.array([to_fast[int(b)] for b in gen.assignments.group]),
            bubble=np.array([to_fast[int(b)] for b in gen.assignments.bubble]),
            converging=np.sort(np.array(
                [to_fast[int(b)] for b in gen.assignments.converging])),
        )
        rebuilt = build_hierarchy(remapped, gen.apsp)
        assert np.array_equal(rebuilt.merges, fast.dendrogram.merges)


class TestPMFGDBHT:
    @pytest.mark.parametrize("n,seed", [(15, 0), (30, 1)])
    def test_end_to_end_valid(self, n, seed):
        S = rand_sim(n, seed)
        D = np.sqrt(2 * (1 - np.clip(S, -1, 1)))
        res = dbht_on_planar_graph(S, D, pmfg(S))
        res.dendrogram.validate()
        labels = res.dendrogram.cut_k(3)
        assert len(np.unique(labels)) == 3
