import hashlib
import math
import random
import time
from fractions import Fraction
from functools import partial

import numpy as np
import pytest

from pvcmon import (
    Graph,
    InfeasibleTargetError,
    PvcbInstance,
    build_gadget,
    coverage,
    pick_solver,
    pvc_decide,
    pvc_degree_greedy,
    pvc_exact,
    pvc_greedy_upper,
    pvc_rho_decide,
    pvc_tree,
    reduction_chain,
    sdyn_decide,
    smon_decide,
    solve_pvc,
    verify_lemma1,
    verify_lemma2,
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
from pvcmon.oracles import cover_profile, min_cover_size, min_cover_size_ilp
from pvcmon.reductions import _GadgetFamily, gadget_parameters
from util import fresh_copy, solver_answers, union


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
        with pytest.raises(ValueError) as caught:
            pvc_exact(c4, -1)
        assert type(caught.value) is ValueError and str(caught.value) == "negative coverage target -1"

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

    def test_negative_budget(self):
        with pytest.raises(ValueError) as caught:
            pvc_rho_decide(cycle_graph(4), -1, Fraction(1, 2))
        assert str(caught.value) == "budget must be nonnegative, got -1"

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


def test_large_tree_decides_use_the_tree_solver():
    # t = ceil(0.8m): branch-and-bound ran past 20 s at k = 84; the optimum is 85
    g = random_tree(300, random.Random(1))
    started = time.perf_counter()
    assert pvc_decide(PvcbInstance(g, 85, 240)) is True
    assert pvc_decide(PvcbInstance(g, 84, 240)) is False
    assert pvc_rho_decide(g, 85, Fraction(4, 5)) is True
    assert pvc_rho_decide(g, 84, Fraction(4, 5)) is False
    assert time.perf_counter() - started < 2.0


def test_budgets_and_targets_refuse_floats():
    # a float budget or target raises TypeError, an integral one too (a
    # cached answer for 3 must not answer 3.0); a numpy integer gets the
    # answer of the int it holds, down to the types in its repr
    g, path, half = cycle_graph(6), path_graph(7), Fraction(1, 2)
    calls = [
        lambda t: pvc_exact(g, t),
        lambda t: pvc_greedy_upper(g, t),
        lambda t: pvc_degree_greedy(g, t),
        lambda t: pvc_tree(path, t),
        lambda t: solve_pvc(g, t),
        lambda k: pvc_decide(PvcbInstance(g, k, 4)),
        lambda t: pvc_decide(PvcbInstance(g, 2, t)),
        lambda l: pvc_rho_decide(g, l, half),
        lambda d: smon_decide(g, d, 1),
        lambda d: sdyn_decide(g, d, "3/2"),
        lambda k: verify_lemma1(g, k, 2),
        lambda t: verify_lemma1(g, 2, t),
        lambda k: build_gadget(g, k, 2, half),
        lambda t: build_gadget(g, 1, t, half),
    ]
    for call in calls:
        for value in (2.5, 3.0):
            with pytest.raises(TypeError):
                call(value)
        assert repr(call(np.int64(3))) == repr(call(3))


def _domain_faults():
    """A ``pytest.param(call, error, message)`` for every entry point that
    takes a coverage target t, a budget k or a fraction, and each fault of
    that argument, on C4 (n = m = 4) with every other argument valid. Each
    fault has one error type and one message, whichever entry point meets it."""
    g, half = cycle_graph(4), Fraction(1, 2)
    instance = {
        "PvcbInstance": lambda k, t: PvcbInstance(g, k, t),
        "verify_lemma1": lambda k, t: verify_lemma1(g, k, t),
        "build_gadget": lambda k, t: build_gadget(g, k, t, half),
        "_GadgetFamily": lambda k, t: _GadgetFamily(g, half)(k, t),
        "gadget_parameters": lambda k, t: gadget_parameters(g, k, t, half),
        "verify_lemma2": lambda k, t: verify_lemma2(g, k, t, half),
        "reduction_chain": lambda k, t: reduction_chain(g, k, t, half),
    }
    target = {
        "pvc_exact": lambda t: pvc_exact(g, t),
        "pvc_greedy_upper": lambda t: pvc_greedy_upper(g, t),
        "pvc_degree_greedy": lambda t: pvc_degree_greedy(g, t),
        "pvc_tree": lambda t: pvc_tree(path_graph(5), t),  # also m = 4
        "solve_pvc": lambda t: solve_pvc(g, t),
        "min_cover_size": lambda t: min_cover_size(g, t),
        "min_cover_size_ilp": lambda t: min_cover_size_ilp(g, t),
        **{name: partial(call, 1) for name, call in instance.items()},
    }
    rho = {
        "pvc_rho_decide": lambda r: pvc_rho_decide(g, 1, r),
        "build_gadget": lambda r: build_gadget(g, 1, 2, r),
        "_GadgetFamily": lambda r: _GadgetFamily(g, r)(1, 2),
        "gadget_parameters": lambda r: gadget_parameters(g, 1, 2, r),
        "verify_lemma2": lambda r: verify_lemma2(g, 1, 2, r),
        "reduction_chain": lambda r: reduction_chain(g, 1, 2, r),
    }
    rows = []
    for name, call in target.items():
        rows.append(pytest.param(partial(call, -1), ValueError, "negative coverage target -1", id=f"{name}-t=-1"))
        rows.append(pytest.param(partial(call, 5), InfeasibleTargetError, "target 5 exceeds edge count 4",
                                 id=f"{name}-t=m+1"))
    for name, call in instance.items():
        for k in (-1, 5):
            rows.append(pytest.param(partial(call, k, 2), ValueError, f"budget k={k} outside [0, 4]",
                                     id=f"{name}-k={k}"))
    for name, call in rho.items():
        for r in (0, 1, Fraction(3, 2)):
            rows.append(pytest.param(partial(call, r), ValueError, f"rho must lie strictly between 0 and 1, got {r}",
                                     id=f"{name}-rho={r}"))
    for call, low in ((smon_decide, 0), (sdyn_decide, 1)):
        for factor in (low, 2, Fraction(5, 2)):
            rows.append(pytest.param(partial(call, g, 1, factor), ValueError,
                                     f"k factor must lie strictly between {low} and 2, got {factor}",
                                     id=f"{call.__name__}-factor={factor}"))
    return rows


@pytest.mark.parametrize("call, error, message", _domain_faults())
def test_each_fault_has_one_error_on_every_entry_point(call, error, message):
    # a negative target or budget is an input error, a target above m an
    # infeasible one, whichever entry point is asked
    with pytest.raises(error) as caught:
        call()
    assert type(caught.value) is error and str(caught.value) == message


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
        h = hashlib.sha256()
        for g in _digest_forests():
            for t in _digest_targets(g):
                res = pvc_tree(g, t)
                h.update(f"{g.n} {g.m} {t} {res.size} {sorted(res.witness)} {res.achieved_coverage}\n".encode())
        assert h.hexdigest() == self.TREE_DIGEST

    # sha256 of (size, sorted witness, achieved coverage) at every t on
    # stars, caterpillars, brooms, spiders and forests whose vertices mix
    # runs of leaf children (first, between and last among the children)
    # with repeated subtree shapes, plus isolated vertices; recorded before
    # leaf runs and shared shapes entered the DP
    SHAPES_DIGEST = "5efb26a00c1df22088be5b3136f3eeab2b06255fd0794ef0acabf8ccbfbfb2f1"

    def test_golden_shapes_digest(self):
        h = hashlib.sha256()
        for g in _shape_forests():
            for t in range(g.m + 1):
                res = pvc_tree(g, t)
                h.update(f"{g.n} {g.m} {t} {res.size} {sorted(res.witness)} {res.achieved_coverage}\n".encode())
        assert h.hexdigest() == self.SHAPES_DIGEST

    def test_leaf_runs_and_shared_shapes_fold_once(self, monkeypatch):
        # min-plus calls of one query, the component knapsack's among them,
        # and the shapes' first steps, which are built without a fold
        from pvcmon import kernels, pvc

        calls = []
        minplus, first_step = kernels.minplus, pvc._first_step
        monkeypatch.setattr(kernels, "minplus", lambda a, b, size: calls.append("fold") or minplus(a, b, size))
        monkeypatch.setattr(pvc, "_first_step", lambda link, cut: calls.append("first") or first_step(link, cut))
        isolated = Graph.from_edges(1, [])
        for g, t, folds, firsts in (
            (star_graph(9), 4, 0, 1),  # nine leaves fold in as one run: one first step
            (spider_graph(3, 2), 4, 2, 2),  # one leg shape, then the centre's three legs
            # one leg shape; then runs of 1, 2 and 1 leaves between the two legs
            (_ordered_tree(((), ((),), (), (), ((),), ())), 5, 4, 2),
            # two components with an edge and an isolated vertex between them:
            # a run of two leaves, a one-leaf vertex and the path's root are
            # first steps, and the knapsack folds the path into the star
            (union([star_graph(2), isolated, path_graph(3)]), 3, 1, 3),
        ):
            calls.clear()
            assert pvc_tree(g, t).size == pvc_exact(g, t).size
            assert (calls.count("fold"), calls.count("first")) == (folds, firsts)

    def test_no_minplus_operand_has_one_cell(self, monkeypatch):
        # first steps and the first component's table need no fold, and an
        # isolated vertex takes no part in the knapsack, so no fold is one
        # whose operand has a single cell
        from pvcmon import kernels

        lengths = []
        minplus = kernels.minplus

        def counted(a, b, size):
            lengths.extend(x.shape[-1] if type(x) is np.ndarray else len(x[0]) for x in (a, b))
            return minplus(a, b, size)

        monkeypatch.setattr(kernels, "minplus", counted)
        rng = random.Random(89)
        graphs = [g for g in _shape_forests() if g.m] + _digest_forests()
        for _ in range(20):
            parts = [random_tree(rng.randint(2, 30), rng) for _ in range(rng.randint(1, 5))]
            graphs.append(union(parts + [Graph.from_edges(1, [])] * rng.randint(0, 3), rng))
        for g in graphs:
            for t in _digest_targets(g):
                pvc_tree(g, t)
        assert len(lengths) > 1000 and min(lengths) > 1

    def test_isolated_vertices_cost_no_fold(self, monkeypatch):
        # a tree with 0, 1 or 1,000 isolated vertices around it (ids keep
        # their order, so the DP sees the same shapes) folds as often and
        # answers alike at every t
        from pvcmon import kernels

        calls = []
        minplus = kernels.minplus
        monkeypatch.setattr(kernels, "minplus", lambda a, b, size: calls.append(1) or minplus(a, b, size))
        tree = random_tree(50, random.Random(97))
        isolated = Graph.from_edges(1, [])
        answers = []
        for before, after in ((0, 0), (0, 1), (500, 500)):
            g = union([isolated] * before + [tree] + [isolated] * after)
            calls.clear()
            results = [pvc_tree(g, t) for t in range(1, g.m + 1)]
            answers.append((len(calls), [res.size for res in results],
                            [sorted(v - before for v in res.witness) for res in results]))
        assert answers[0][0] > 0 and answers[0] == answers[1] == answers[2]

    def test_first_step_is_the_base_fold(self):
        # a shape's first table, built without a fold, is the fold of its
        # link into the base table: the same cells, and lists exactly when
        # min-plus gives lists, on either side of LIST_CELLS
        from pvcmon import kernels, pvc

        inf = kernels.INF
        rng = random.Random(83)
        for length in (1, 2, 3, 17, kernels.LIST_CELLS - 1, kernels.LIST_CELLS, kernels.LIST_CELLS + 1, 200):
            rows = [[rng.choice((rng.randint(0, 60), inf, inf - 1)) for _ in range(length)] for _ in range(2)]
            for link in (tuple(map(list, rows)), np.array(rows, dtype=np.int64)):
                for cut in (1, 2, length // 2 + 1, length, length + 5):
                    got, want = pvc._first_step(link, cut), kernels.minplus(pvc._BASE, link, cut)
                    assert type(got) is type(want)
                    if type(want) is tuple:
                        assert all(type(row) is list for row in got) and got == want
                    else:
                        assert got.dtype == want.dtype and got.shape == want.shape and (got == want).all()
                    # the link is left as it was
                    assert [list(map(int, row)) for row in link] == rows
        assert type(pvc._first_step(([0] * kernels.LIST_CELLS, [inf] * kernels.LIST_CELLS), 99)) is tuple
        assert type(pvc._first_step(([0] * (kernels.LIST_CELLS + 1), [inf] * (kernels.LIST_CELLS + 1)), 99)) is np.ndarray

    def test_shared_shapes_live_one_call(self):
        # the shape table and the run links belong to one call: nothing of
        # them is kept once it returns
        import gc
        import tracemalloc

        rng = random.Random(73)
        trees = [random_recursive_tree(rng.randint(200, 600), rng) for _ in range(10)]
        big = random_recursive_tree(2000, random.Random(12))
        pvc_tree(path_graph(3), 1)  # one-time allocations happen before the measurement
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            for g in trees:
                pvc_tree(g, g.m // 3)
            gc.collect()
            kept = tracemalloc.get_traced_memory()[0] - before
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            pvc_tree(big, big.m // 3)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert kept < 4096
        # 2,013,584 bytes before leaf runs and shared shapes (numpy 2.4)
        assert peak < 1.1 * 2_013_584

    def test_deep_path_peak(self):
        # list tables and per-shape links must not raise the peak of the
        # deepest tree, whose tables nearly all are arrays, and tables cut
        # at t + max degree cells lower it
        import gc
        import tracemalloc

        g = path_graph(4000)
        pvc_tree(path_graph(3), 1)  # one-time allocations happen before the measurement
        gc.collect()
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            pvc_tree(g, g.m // 3)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        # 129,744,620 bytes (123.7 MiB) when every table was an array and
        # uncut, 72,859,164 bytes (69.5 MiB) with every table cut (numpy 2.4)
        assert peak <= 73_000_000

    def test_cell_count_matches_the_tables_built(self, monkeypatch):
        # _dp_cells counts, from the shapes alone, every table the DP then
        # builds: the leaf's, each shape's base table and first step, and
        # each later fold's result, cut at t + max degree cells
        from pvcmon import kernels, pvc
        from pvcmon.graph import walk

        built = []
        minplus, first_step = kernels.minplus, pvc._first_step

        def counted(a, b, size):
            out = minplus(a, b, size)
            if type(out) is tuple or out.ndim == 2:  # not the component knapsack
                built.append(2 * len(out[0]))
            return out

        def counted_first(link, cut):
            out = first_step(link, cut)
            built.append(2 * len(out[0]) + 2)  # with the shape's base table
            return out

        monkeypatch.setattr(kernels, "minplus", counted)
        monkeypatch.setattr(pvc, "_first_step", counted_first)
        rng = random.Random(79)
        graphs = [g for g in _shape_forests() if g.m]
        graphs += [path_graph(60), random_recursive_tree(600, rng), random_tree(300, rng)]
        for g in graphs:
            built.clear()
            pvc_tree(g, 1)
            w = walk(g)
            cut = 1 + max(g.degrees)
            assert pvc._dp_cells(pvc._shape_keys(w.children, w.order, [0] * g.n), cut) == 2 + sum(built)

    def test_cell_limit(self):
        # at t = m (tables cut at m + 2 = n + 1 cells, so none is cut) a path
        # of n vertices needs (n - 1)(n + 4) + 2 cells: 8,000 stay within
        # the limit, 20,000 do not
        from pvcmon import pvc
        from pvcmon.graph import walk

        for n in (60, 8000, 20000):
            w = walk(path_graph(n))
            assert pvc._dp_cells(pvc._shape_keys(w.children, w.order, [0] * n), n + 1) == (n - 1) * (n + 4) + 2
        assert (8000 - 1) * (8000 + 4) + 2 <= pvc.TREE_DP_MAX_CELLS < (20000 - 1) * (20000 + 4) + 2

    def test_cell_limit_refuses_before_building(self):
        # ~1.8 GB of int64 tables, cut at t + 2 = 6,668 cells (3.2 GB uncut),
        # refused before the first is built
        import tracemalloc

        g = path_graph(20000)
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=r"^tree DP needs 222,304,442 table cells, "
                                                 r"above the limit of 100,000,000$"):
                pvc_tree(g, g.m // 3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32 << 20

    def test_small_forests_skip_the_count(self, monkeypatch):
        # below the bound 2n(n + 1) <= TREE_DP_MAX_CELLS nothing is counted
        from pvcmon import pvc

        def unreachable(keys):
            raise AssertionError("counted")

        monkeypatch.setattr(pvc, "_dp_cells", unreachable)
        g = random_recursive_tree(2000, random.Random(12))
        assert pvc_tree(g, g.m // 3).method == "tree_dp"


def _ordered_tree(shape) -> Graph:
    """The rooted tree ``shape`` (a tuple of its children's shapes), its ids
    given in BFS order: the tree solver roots a component at its lowest id
    and orders children by id, so each vertex keeps its listed child order."""
    edges = []
    queue = [(0, shape)]
    for v, kids in queue:
        for kid in kids:
            edges.append((v, len(queue)))
            queue.append((len(queue), kid))
    return Graph.from_edges(len(queue), edges)


def _digest_forests():
    """The forests of ``TREE_DIGEST``: shallow random recursive trees, the
    benchmark cli workload's shape, and forests with isolated vertices."""
    rng = random.Random(47)
    graphs = [random_recursive_tree(n, rng) for n in (300, 600, 2000)]
    for _ in range(3):
        parts = [random_recursive_tree(rng.randint(1, 40), rng) for _ in range(rng.randint(2, 4))]
        parts += [Graph.from_edges(1, [])] * rng.randint(1, 3)
        graphs.append(union(parts, rng))
    return graphs


def _digest_targets(g):
    return sorted({1, g.m // 5, g.m // 3, g.m // 2, 4 * g.m // 5, g.m})


def _shape_forests():
    leaf = ()
    cherry = (leaf, leaf)
    hook = ((leaf,),)
    mixed = (leaf, cherry, leaf)

    def caterpillar(legs):
        # spine vertex i carries legs[i] = (leaves before, leaves after) its spine child
        shape = leaf
        for before, after in reversed(legs):
            shape = (leaf,) * before + (shape,) + (leaf,) * after
        return shape

    def broom(handle, bristles):
        shape = (leaf,) * bristles
        for _ in range(handle):
            shape = (shape,)
        return shape

    shapes = [
        (leaf,) * 5,
        (leaf, leaf, cherry, leaf, cherry, leaf, leaf, leaf),
        (cherry, leaf, leaf, cherry, hook, leaf),
        (mixed, leaf, mixed, leaf, leaf, (mixed, mixed), leaf, cherry),
        (hook, hook, cherry, cherry, leaf),
        ((cherry, cherry), leaf, (cherry, cherry), (cherry, leaf, cherry), leaf, leaf),
        caterpillar([(2, 1), (0, 3), (1, 0), (2, 2), (0, 0), (3, 1)]),
        caterpillar([(1, 1)] * 7),
        broom(4, 6),
        broom(1, 3),
        (broom(2, 3), leaf, broom(2, 3), leaf, broom(3, 2)),
    ]
    graphs = [star_graph(k) for k in (1, 2, 9)]
    graphs += [_ordered_tree(s) for s in shapes]
    graphs += [spider_graph(3, 2), spider_graph(4, 3), spider_graph(6, 1)]
    isolated = Graph.from_edges(1, [])
    graphs.append(union([isolated, _ordered_tree(shapes[1]), isolated, isolated,
                         _ordered_tree(shapes[3]), _ordered_tree(cherry), isolated]))
    graphs.append(union([_ordered_tree(shapes[5]), star_graph(3), _ordered_tree(mixed),
                         _ordered_tree(mixed), spider_graph(2, 2)]))
    rng = random.Random(71)
    for _ in range(4):
        legs = [(rng.randint(0, 3), rng.randint(0, 3)) for _ in range(rng.randint(2, 8))]
        graphs.append(union([_ordered_tree(caterpillar(legs)), isolated], rng))
    for _ in range(4):
        parts = [_ordered_tree(rng.choice(shapes)) for _ in range(rng.randint(2, 4))]
        parts += [isolated] * rng.randint(0, 2)
        graphs.append(union(parts, rng))
    for _ in range(4):
        graphs.append(random_recursive_tree(rng.randint(40, 120), rng))
    return graphs


class TestDegreeGreedy:
    def test_complete_bipartite_prefixes(self):
        assert pvc_degree_greedy(complete_bipartite(2, 3), 4).size == 2
        assert pvc_degree_greedy(complete_bipartite(3, 3), 3).size == 1

    def test_zero_target(self):
        assert pvc_degree_greedy(complete_bipartite(2, 2), 0).size == 0

    def test_hypothesis_enforced(self):
        # side 0 of K_{3,2} has the lower degrees, so X is side 1
        assert pvc_degree_greedy(complete_bipartite(3, 2), 3).witness == {3}
        # P4: each side has a degree-1 and a degree-2 vertex
        with pytest.raises(ValueError, match="min degree on X is 1 < max degree on Y 2"):
            pvc_degree_greedy(path_graph(4), 2)
        with pytest.raises(ValueError, match="requires a bipartite graph"):
            pvc_degree_greedy(cycle_graph(5), 2)

    def test_matches_exact(self):
        rng = random.Random(14)
        for _ in range(40):
            g, _ = random_bipartite_degree_dominant(rng)
            for t in range(0, g.m + 1, max(1, g.m // 5)):
                got = pvc_degree_greedy(g, t)
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


def test_oracles_refuse_what_they_cannot_answer():
    # the checks come before any enumeration or scipy import, and the ILP
    # answers t = 0 without a solve
    from pvcmon.oracles import max_independent_set_size, min_cover_size_ilp

    c4 = cycle_graph(4)
    for oracle in (min_cover_size, min_cover_size_ilp):
        for t, error, message in ((-1, ValueError, "negative coverage target -1"),
                                  (5, InfeasibleTargetError, "target 5 exceeds edge count 4")):
            with pytest.raises(error) as caught:
                oracle(c4, t)
            assert type(caught.value) is error and str(caught.value) == message
    assert min_cover_size_ilp(c4, 0) == 0
    with pytest.raises(ValueError) as caught:
        max_independent_set_size(Graph.from_edges(21, []))
    assert str(caught.value) == "enumeration guard: n=21 > 20"


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
    # targets near m, where the uncoverable-edge bound and, at t = m, the
    # forced-neighbour bound keep the search short
    pytest.importorskip("scipy")
    from pvcmon.oracles import min_cover_size_ilp

    searched = 0.0
    cases = [(n, p, frac) for n, p in ((40, 0.2), (50, 0.15), (60, 0.1)) for frac in (0.9, 1)]
    cases.append((80, 0.08, 1))  # size 50: 2.1M search states without the forced-neighbour bound
    for n, p, frac in cases:
        g = random_graph(n, p, random.Random(1))
        t = math.ceil(frac * g.m)
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
        assert g._pvc is not None and twin._pvc is None

    def test_walk_does_not_touch_the_graph(self):
        # the walk flows as a value: neither the tree DP nor the routed
        # queries that read it store anything on the graph
        g = random_recursive_tree(300, random.Random(3))
        twin = fresh_copy(g)
        before = (hash(g), repr(g), dict(vars(g)))
        pvc_tree(g, g.m // 3)
        solve_pvc(g, g.m // 2)
        pick_solver(g)
        assert g == twin and hash(g) == hash(twin)
        assert (hash(g), repr(g), dict(vars(g))) == before
        assert g._pvc is None

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


class TestAnswerCache:
    # solve_pvc keeps its branch-and-bound answers on the graph object
    def test_repeat_call_returns_the_kept_answer(self):
        g = random_graph(10, 0.5, random.Random(8))
        first = solve_pvc(g, g.m // 2)
        assert solve_pvc(g, g.m // 2) is first
        assert first == pvc_exact(fresh_copy(g), g.m // 2)
        assert g._pvc.answers == {g.m // 2: first}

    def test_equal_graphs_share_no_answers(self):
        g = random_graph(9, 0.5, random.Random(3))
        twin = fresh_copy(g)
        before = (hash(g), repr(g))
        solve_pvc(g, g.m)
        assert g == twin and hash(g) == hash(twin)
        assert (hash(g), repr(g)) == before
        assert set(g._pvc.answers) == {g.m} and twin._pvc is None
        solve_pvc(twin, 1)
        assert set(g._pvc.answers) == {g.m} and set(twin._pvc.answers) == {1}

    def test_kept_answers_equal_exact_at_every_target(self):
        rng = random.Random(71)
        for _ in range(40):
            g = random_graph(rng.randint(1, 12), rng.choice((0.2, 0.4, 0.6)), rng)
            targets = rng.sample(range(g.m + 1), g.m + 1)
            # the second round reads every answer back
            for t in targets + targets:
                assert solve_pvc(g, t) == pvc_exact(fresh_copy(g), t)
            assert set(g._pvc.answers) == set(range(g.m + 1))

    def test_polynomial_routes_keep_no_answers(self):
        tree = random_recursive_tree(300, random.Random(3))
        bip = complete_bipartite(6, 40)
        for g, method in ((tree, "tree_dp"), (bip, "degree_greedy")):
            assert g.n > 30 and pick_solver(g) == method
            for t in (1, g.m // 2, g.m):
                assert solve_pvc(g, t).method == method
            assert g._pvc is None
