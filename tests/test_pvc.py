import math
import random
from fractions import Fraction

import pytest

from pvcmon import (
    InfeasibleTargetError,
    PvcbInstance,
    bipartition,
    coverage,
    pvc_decide,
    pvc_degree_greedy,
    pvc_exact,
    pvc_greedy_upper,
    pvc_rho_decide,
    pvc_tree,
)
from pvcmon.corpus import (
    complete_bipartite,
    complete_graph,
    cycle_graph,
    path_graph,
    random_bipartite_degree_dominant,
    random_graph,
    random_tree,
    spider_graph,
    star_graph,
)
from pvcmon.oracles import cover_profile, min_cover_size


class TestExact:
    def test_cycle_targets(self):
        c4 = cycle_graph(4)
        assert pvc_exact(c4, 2).size == 1
        assert pvc_exact(c4, 4).size == 2

    def test_zero_target(self):
        res = pvc_exact(complete_graph(4), 0)
        assert res.size == 0 and res.witness == frozenset()

    def test_complete_bipartite(self):
        # a single degree-3 vertex covers only 3 of the 6 edges
        assert pvc_exact(complete_bipartite(2, 3), 4).size == 2

    def test_witness_is_consistent(self):
        rng = random.Random(2)
        for _ in range(30):
            g = random_graph(rng.randint(1, 9), 0.5, rng)
            t = rng.randint(0, g.m)
            res = pvc_exact(g, t)
            assert len(res.witness) == res.size
            assert res.achieved_coverage == coverage(g, res.witness) >= t

    def test_infeasible_targets(self):
        c4 = cycle_graph(4)
        with pytest.raises(InfeasibleTargetError):
            pvc_exact(c4, 5)
        with pytest.raises(InfeasibleTargetError):
            pvc_exact(c4, -1)

    def test_matches_enumeration_everywhere(self):
        rng = random.Random(8)
        for _ in range(25):
            g = random_graph(rng.randint(1, 10), rng.choice((0.3, 0.6, 0.9)), rng)
            profile = cover_profile(g)
            for t in range(g.m + 1):
                expected = next(k for k, c in enumerate(profile) if c >= t)
                assert pvc_exact(g, t).size == expected

    def test_monotone_and_lipschitz_in_target(self):
        rng = random.Random(13)
        for _ in range(15):
            g = random_graph(rng.randint(1, 9), 0.5, rng)
            sizes = [pvc_exact(g, t).size for t in range(g.m + 1)]
            assert sizes[0] == 0
            for a, b in zip(sizes, sizes[1:]):
                assert a <= b <= a + 1


class TestDecide:
    def test_examples(self):
        c4 = cycle_graph(4)
        assert pvc_decide(PvcbInstance(c4, 1, 2))
        assert not pvc_decide(PvcbInstance(c4, 1, 4))
        assert pvc_decide(PvcbInstance(c4, 0, 0))

    def test_instance_validation(self):
        c4 = cycle_graph(4)
        with pytest.raises(ValueError):
            PvcbInstance(c4, 5, 2)
        with pytest.raises(ValueError):
            PvcbInstance(c4, 1, 5)

    def test_agrees_with_exact(self):
        rng = random.Random(21)
        for _ in range(20):
            g = random_graph(rng.randint(1, 8), 0.5, rng)
            for t in range(g.m + 1):
                opt = pvc_exact(g, t).size
                for k in range(g.n + 1):
                    assert pvc_decide(PvcbInstance(g, k, t)) == (opt <= k)


class TestRhoDecide:
    def test_examples(self):
        c4 = cycle_graph(4)
        assert pvc_rho_decide(c4, 1, Fraction(1, 2))
        assert not pvc_rho_decide(c4, 1, Fraction(3, 4))
        assert pvc_rho_decide(star_graph(5), 1, Fraction(1, 2))

    def test_rho_range(self):
        c4 = cycle_graph(4)
        for rho in (0, 1, Fraction(5, 4), -1):
            with pytest.raises(ValueError):
                pvc_rho_decide(c4, 1, rho)

    def test_rational_ceiling(self):
        # 7 edges, rho=1/3 -> target 3; the star center covers them all
        g = star_graph(7)
        assert pvc_rho_decide(g, 1, Fraction(1, 3))


class TestTree:
    def test_examples(self):
        assert pvc_tree(path_graph(5), 4).size == 2
        assert pvc_tree(star_graph(7), 7).size == 1
        assert pvc_tree(spider_graph(3, 2), 6).size == 3

    def test_cycle_rejected(self):
        with pytest.raises(ValueError):
            pvc_tree(cycle_graph(4), 2)

    def test_forest_support(self):
        rng = random.Random(6)
        for _ in range(20):
            trees = [random_tree(rng.randint(1, 6), rng) for _ in range(rng.randint(1, 3))]
            edges = []
            offset = 0
            for tr in trees:
                edges.extend((u + offset, v + offset) for u, v in tr.edges)
                offset += tr.n
            from pvcmon import Graph

            forest = Graph.from_edges(offset, edges)
            for t in range(forest.m + 1):
                a = pvc_tree(forest, t)
                assert a.size == pvc_exact(forest, t).size
                assert coverage(forest, a.witness) >= t

    def test_matches_exact_random_trees(self):
        rng = random.Random(10)
        for _ in range(40):
            g = random_tree(rng.randint(1, 15), rng)
            for t in range(g.m + 1):
                assert pvc_tree(g, t).size == pvc_exact(g, t).size

    def test_infeasible(self):
        with pytest.raises(InfeasibleTargetError):
            pvc_tree(path_graph(3), 3)


class TestDegreeGreedy:
    def test_complete_bipartite_prefixes(self):
        g = complete_bipartite(2, 3)
        view = bipartition(g, x_hint={0, 1})
        assert pvc_degree_greedy(view, g, 4).size == 2
        g33 = complete_bipartite(3, 3)
        view33 = bipartition(g33, x_hint={0, 1, 2})
        assert pvc_degree_greedy(view33, g33, 3).size == 1

    def test_zero_target(self):
        g = complete_bipartite(2, 2)
        view = bipartition(g)
        assert pvc_degree_greedy(view, g, 0).size == 0

    def test_hypothesis_enforced(self):
        g = complete_bipartite(3, 2)  # hinted X side has the lower degrees
        view = bipartition(g, x_hint={0, 1, 2})
        assert view.min_degree_x == 2 and view.max_degree_y == 3
        with pytest.raises(ValueError):
            pvc_degree_greedy(view, g, 2)

    def test_matches_exact(self):
        rng = random.Random(14)
        for _ in range(40):
            g, xs = random_bipartite_degree_dominant(rng)
            view = bipartition(g, x_hint=xs)
            for t in range(0, g.m + 1, max(1, g.m // 5)):
                got = pvc_degree_greedy(view, g, t)
                assert got.size == pvc_exact(g, t).size
                assert got.achieved_coverage == coverage(g, got.witness) >= t


class TestGreedyUpper:
    def test_examples(self):
        assert pvc_greedy_upper(star_graph(5), 5).size == 1
        assert pvc_greedy_upper(cycle_graph(4), 4).size == 2
        assert pvc_greedy_upper(path_graph(4), 3).size == 2

    def test_never_below_optimum_and_tagged(self):
        rng = random.Random(19)
        for _ in range(30):
            g = random_graph(rng.randint(1, 9), 0.5, rng)
            t = rng.randint(0, g.m)
            ub = pvc_greedy_upper(g, t)
            assert ub.method == "heuristic"
            assert ub.size >= pvc_exact(g, t).size
            assert coverage(g, ub.witness) >= t


def test_full_target_equals_vertex_cover_number():
    from pvcmon.oracles import max_independent_set_size

    rng = random.Random(23)
    for _ in range(20):
        g = random_graph(rng.randint(1, 10), rng.choice((0.3, 0.6)), rng)
        vc = g.n - max_independent_set_size(g)
        assert pvc_exact(g, g.m).size == vc


def test_enumeration_oracle_guard():
    big = random_graph(22, 0.2, random.Random(0))
    with pytest.raises(ValueError):
        min_cover_size(big, 1)


def test_exact_matches_ilp_oracle_beyond_enumeration():
    # subset enumeration stops near n = 20; the ILP checks optimality above it
    pytest.importorskip("scipy")
    from pvcmon.oracles import min_cover_size_ilp

    rng = random.Random(29)
    for n in (20, 24, 27, 30):
        g = random_graph(n, 0.25, rng)
        for t in (math.ceil(0.7 * g.m), math.ceil(0.9 * g.m), g.m):
            res = pvc_exact(g, t)
            assert res.size == min_cover_size_ilp(g, t)
            assert coverage(g, res.witness) >= t
