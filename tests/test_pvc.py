import hashlib
import math
import random
import time
from fractions import Fraction

import pytest

from pvcmon import (
    Graph,
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
    random_recursive_tree,
    random_tree,
    spider_graph,
    star_graph,
)
from pvcmon.oracles import cover_profile, min_cover_size
from util import fresh_copy, relabelled_union, solver_answers


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

    def test_float_rho_rejected(self):
        # Fraction(0.1) is a little above 1/10, so ceil(rho * 10) would be 2
        # and one vertex of a ten-edge matching would wrongly fall short
        matching = Graph.from_edges(20, [(2 * i, 2 * i + 1) for i in range(10)])
        assert pvc_rho_decide(matching, 1, Fraction(1, 10))
        assert pvc_rho_decide(matching, 1, "1/10")
        with pytest.raises(TypeError):
            pvc_rho_decide(matching, 1, 0.1)


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

    # Witnesses pinned at every t. The first forest has a spider, a path, a
    # star and an isolated vertex; its roots 0 and 13 are chosen at some t,
    # root 8 never is. The other two are relabelled random forests of three
    # trees and two isolated vertices: no root of the second is ever chosen,
    # while roots 0 and 3 of the third are.
    GOLDEN_FORESTS = [
        (
            17,
            [(0, 1), (1, 2), (0, 3), (3, 4), (0, 5), (5, 6), (8, 9), (9, 10), (10, 11), (11, 12),
             (13, 14), (13, 15), (13, 16)],
            [[], [2], [1], [0], [1, 3], [0, 11], [0, 13], [0, 9, 11], [0, 11, 13], [0, 9, 11, 13],
             [0, 9, 11, 13], [1, 3, 5, 11, 13], [1, 3, 5, 9, 11, 13], [1, 3, 5, 9, 11, 13]],
        ),
        (
            19,
            [(0, 10), (1, 6), (2, 6), (3, 7), (3, 14), (5, 16), (6, 11), (6, 16), (9, 11), (9, 17),
             (10, 14), (12, 13), (12, 18), (13, 15)],
            [[], [7], [3], [6], [6], [3, 6], [3, 6], [3, 6, 10], [3, 6, 10], [3, 6, 10, 17],
             [3, 6, 9, 10], [3, 5, 6, 9, 10], [3, 6, 9, 10, 13], [3, 5, 6, 9, 10, 13],
             [3, 5, 6, 9, 10, 13, 18]],
        ),
        (
            23,
            [(0, 5), (0, 8), (1, 18), (1, 21), (2, 18), (3, 4), (3, 19), (6, 11), (8, 21), (9, 21),
             (10, 14), (10, 15), (10, 17), (11, 14), (12, 17), (16, 19), (16, 20), (17, 22)],
            [[], [5], [18], [21], [5, 21], [18, 21], [17, 21], [0, 18, 21], [17, 18, 21],
             [0, 16, 18, 21], [0, 17, 18, 21], [0, 3, 16, 18, 21], [0, 16, 17, 18, 21],
             [0, 3, 14, 16, 18, 21], [0, 3, 16, 17, 18, 21], [0, 3, 15, 16, 17, 18, 21],
             [0, 3, 10, 16, 17, 18, 21], [0, 3, 14, 15, 16, 17, 18, 21],
             [0, 3, 10, 11, 16, 17, 18, 21]],
        ),
    ]

    @pytest.mark.parametrize("n, edges, witnesses", GOLDEN_FORESTS)
    def test_golden_witnesses(self, n, edges, witnesses):
        forest = Graph.from_edges(n, edges)
        assert len(witnesses) == forest.m + 1
        for t, expected in enumerate(witnesses):
            res = pvc_tree(forest, t)
            assert sorted(res.witness) == expected
            assert len(res.witness) == res.size == pvc_exact(forest, t).size
            assert res.achieved_coverage == coverage(forest, res.witness) >= t

    def test_matches_exact_random_trees(self):
        rng = random.Random(10)
        for _ in range(40):
            g = random_tree(rng.randint(1, 15), rng)
            for t in range(g.m + 1):
                assert pvc_tree(g, t).size == pvc_exact(g, t).size

    def test_infeasible(self):
        with pytest.raises(InfeasibleTargetError):
            pvc_tree(path_graph(3), 3)

    # sha256 of (size, sorted witness, achieved coverage) on shallow random
    # recursive trees, the benchmark cli workload's shape, and on forests with
    # isolated vertices; the DP's speed-ups must keep every witness unchanged
    TREE_DIGEST = "bb1fe961cd429c07c0a25deb5369d29ef913c3e29dfb7faaa0006347f88742d5"

    def test_golden_witness_digest(self):
        rng = random.Random(47)
        graphs = [random_recursive_tree(n, rng) for n in (300, 600, 2000)]
        for _ in range(3):
            parts = [random_recursive_tree(rng.randint(1, 40), rng) for _ in range(rng.randint(2, 4))]
            parts += [Graph.from_edges(1, [])] * rng.randint(1, 3)
            graphs.append(relabelled_union(parts, rng))
        h = hashlib.sha256()
        for g in graphs:
            for t in sorted({1, g.m // 5, g.m // 3, g.m // 2, 4 * g.m // 5, g.m}):
                res = pvc_tree(g, t)
                h.update(f"{g.n} {g.m} {t} {res.size} {sorted(res.witness)} {res.achieved_coverage}\n".encode())
        assert h.hexdigest() == self.TREE_DIGEST


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


def test_exact_vertex_cover_end_matches_ilp():
    # targets near m, where only the uncoverable-edge bound keeps the search short
    pytest.importorskip("scipy")
    from pvcmon.oracles import min_cover_size_ilp

    searched = 0.0
    for n, p in ((40, 0.2), (50, 0.15), (60, 0.1)):
        g = random_graph(n, p, random.Random(1))
        for t in (math.ceil(0.9 * g.m), g.m):
            started = time.perf_counter()
            res = pvc_exact(g, t)
            searched += time.perf_counter() - started
            assert res.size == min_cover_size_ilp(g, t)
            assert coverage(g, res.witness) >= t
    assert searched < 10.0, f"exact searches took {searched:.2f}s"


# sha256 of the corpus below, recorded before the uncoverable-edge bound: a
# bound may prune only subtrees without a better cover, so it must keep every
# witness and decision unchanged
WITNESS_DIGEST = "1c808c336ce8d546f6a0a6fe64c840793aed12070df9fc3e53bb48cd74d408e0"


def test_golden_witness_digest():
    rng = random.Random(43)
    h = hashlib.sha256()
    for _ in range(64):
        g = random_graph(rng.randint(10, 22), rng.choice((0.2, 0.3, 0.4, 0.5)), rng)
        for t in (math.ceil(0.7 * g.m), math.ceil(0.8 * g.m), math.ceil(0.9 * g.m), g.m):
            res = pvc_exact(g, t)
            below = res.size > 0 and pvc_decide(PvcbInstance(g, res.size - 1, t))
            at = pvc_decide(PvcbInstance(g, res.size, t))
            h.update(f"{g.n} {g.m} {t} {sorted(res.witness)} {below} {at}\n".encode())
    assert h.hexdigest() == WITNESS_DIGEST


# sha256 of every greedy answer on the corpus below, each graph queried at
# its targets in shuffled order; recorded while each call still ran the
# greedy from scratch, so it pins the resumed greedy to the same picks
GREEDY_DIGEST = "77bc903b73e579bdaf69173b1538815aa2a492e8f309a7edab4548b6ac0afa68"


def _greedy_corpus():
    from pvcmon.reductions import build_gadget, pendant_triple_augment

    rng = random.Random(47)
    for _ in range(40):
        g = random_graph(rng.randint(1, 40), rng.choice((0.1, 0.2, 0.4, 0.7)), rng)
        yield g
        yield pendant_triple_augment(g)[0]
    for _ in range(6):
        yield random_recursive_tree(rng.randint(50, 200), rng)
    for _ in range(6):
        base = random_graph(4, 0.6, rng)
        k, t, rho = rng.randint(0, 3), rng.randint(0, base.m), Fraction(1, rng.randint(2, 3))
        yield build_gadget(base, k, t, rho).graph


def test_greedy_golden_digest():
    rng = random.Random(5)
    h = hashlib.sha256()
    for g in _greedy_corpus():
        targets = list(range(g.m + 1))
        rng.shuffle(targets)
        for t in targets:
            res = pvc_greedy_upper(g, t)
            h.update(f"{g.n} {g.m} {t} {res.size} {sorted(res.witness)} {res.achieved_coverage}\n".encode())
    assert h.hexdigest() == GREEDY_DIGEST


class TestSolverState:
    def test_state_does_not_touch_equality(self):
        g = random_graph(9, 0.5, random.Random(3))
        twin = fresh_copy(g)
        before = (hash(g), repr(g))
        pvc_exact(g, g.m)
        assert g == twin and hash(g) == hash(twin)
        assert (hash(g), repr(g)) == before
        assert g._pvc_state is not None and twin._pvc_state is None

    def test_threads_on_shared_graphs(self):
        import sys
        import threading

        # the threads (more than the cores) start on each graph object
        # together, one asking its targets in increasing order and the others
        # in shuffled orders, so they extend and read its state at once
        rng = random.Random(61)
        graphs = [random_graph(rng.randint(40, 70), 0.15, rng) for _ in range(16)]
        graphs += [random_graph(rng.randint(3, 9), rng.choice((0.3, 0.6)), rng) for _ in range(12)]
        n_threads = 3
        orders = [[] for _ in range(n_threads)]
        for g in graphs:
            # greedy only on the large graphs, where exact search is slow
            ks = [None] if g.n > 9 else range(g.n + 1)
            queries = [(g, k, t) for t in range(g.m + 1) for k in ks]
            orders[0].append(queries)
            for order in orders[1:]:
                order.append(rng.sample(queries, len(queries)))
        expected = [[solver_answers(queries, fresh_copy) for queries in order] for order in orders]
        got = [[] for _ in range(n_threads)]
        errors = []
        barrier = threading.Barrier(n_threads)

        def run(i):
            try:
                for queries in orders[i]:
                    barrier.wait()
                    got[i].append(solver_answers(queries, lambda g: g))
            except Exception as exc:  # reported below; stop the other threads too
                errors.append(exc)
                barrier.abort()

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # switch threads often, to interleave state updates
        try:
            threads = [threading.Thread(target=run, args=(i,), daemon=True) for i in range(n_threads)]
            for th in threads:
                th.start()
            deadline = time.monotonic() + 60
            for th in threads:
                th.join(timeout=max(0.0, deadline - time.monotonic()))
        finally:
            sys.setswitchinterval(interval)
        assert not any(th.is_alive() for th in threads)
        assert not errors, errors
        assert got == expected

    def test_degree_sum_refusal_agrees_with_exact(self, monkeypatch):
        # decides whose cap largest degrees sum below t are answered "no"
        # before any search; each such answer must match the exact size
        from pvcmon import kernels
        from pvcmon.reductions import pendant_triple_augment

        searches = []
        search = kernels.bb_min_cover
        monkeypatch.setattr(kernels, "bb_min_cover", lambda *a: searches.append(a) or search(*a))
        rng = random.Random(67)
        refused = 0
        for _ in range(40):
            g = random_graph(rng.randint(2, 9), rng.choice((0.3, 0.5, 0.8)), rng)
            for h in (g, pendant_triple_augment(g)[0]):
                top = sorted(h.degrees, reverse=True)
                for t in range(1, h.m + 1):
                    size = pvc_exact(h, t).size
                    for k in range(h.n + 1):
                        fires = pvc_greedy_upper(h, t).size > k and sum(top[:k]) < t
                        searches.clear()
                        assert pvc_decide(PvcbInstance(h, k, t)) == (size <= k)
                        if fires:
                            refused += 1
                            assert not searches
        assert refused > 1000
