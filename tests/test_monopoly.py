import math
import random
import time
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from pvcmon import (
    Graph,
    InfeasibleTargetError,
    ThresholdAssignment,
    coverage,
    dynamo_witness_tau,
    is_dynamic_monopoly,
    is_monopoly,
    monopoly_witness_tau,
    sdyn,
    sdyn_decide,
    sdyn_via_subgraph,
    simulate_spread,
    smon,
    smon_decide,
)
from pvcmon.corpus import complete_graph, cycle_graph, path_graph, random_graph, random_tree, star_graph
from pvcmon.monopoly import sparse_profile
from pvcmon.pvc import PvcbInstance, pvc_decide, pvc_greedy_upper, pvc_tree


class TestThresholds:
    def test_validation(self):
        c4 = cycle_graph(4)
        tau = ThresholdAssignment.for_graph(c4, [0, 1, 2, 2])
        assert tau.total == 5 and tau.average == Fraction(5, 4)
        with pytest.raises(ValueError):
            ThresholdAssignment.for_graph(c4, [3, 0, 0, 0])  # above degree
        with pytest.raises(ValueError):
            ThresholdAssignment.for_graph(c4, [-1, 0, 0, 0])
        with pytest.raises(ValueError):
            ThresholdAssignment.for_graph(c4, [0, 0, 0])  # wrong length
        with pytest.raises(ValueError, match="^empty assignment has no average$"):
            ThresholdAssignment(()).average

    def test_non_integers_are_refused(self):
        # a float or a string id or threshold raises TypeError rather than
        # being truncated; numpy integers are integers
        g = path_graph(3)
        for bad in ([1.9], ["1"]):
            with pytest.raises(TypeError):
                coverage(g, bad)
            with pytest.raises(TypeError):
                simulate_spread(g, [1, 1, 1], bad)
        for bad in ([0.9, 1.99, 1.0], ["0", "1", "1"]):
            with pytest.raises(TypeError):
                ThresholdAssignment.for_graph(g, bad)
            with pytest.raises(TypeError):
                is_monopoly(g, bad, {1})
        tau = ThresholdAssignment.for_graph(g, np.array([0, 2, 1]))
        assert tau.values == (0, 2, 1) and all(type(x) is int for x in tau.values)
        assert coverage(g, np.array([1])) == 2


class TestSpread:
    def test_zero_thresholds_activate_everyone(self):
        g = random_graph(6, 0.4, random.Random(1))
        trace = simulate_spread(g, [0] * 6, set())
        assert trace.activated_all and len(trace.layers) == 2
        assert trace.layers[1] == frozenset(range(6))

    def test_path_center(self):
        trace = simulate_spread(path_graph(3), [1, 1, 1], {1})
        assert [sorted(layer) for layer in trace.layers] == [[1], [0, 2]]
        assert trace.activated_all

    def test_cycle_stall(self):
        trace = simulate_spread(cycle_graph(4), [2, 2, 2, 2], {0})
        assert not trace.activated_all
        assert trace.layers == (frozenset({0}),)

    def test_layers_partition_and_closure(self):
        rng = random.Random(7)
        for _ in range(25):
            g = random_graph(rng.randint(1, 8), 0.5, rng)
            tau = [rng.randint(0, g.degree(v)) for v in range(g.n)]
            seed = {v for v in range(g.n) if rng.random() < 0.3}
            trace = simulate_spread(g, tau, seed)
            flat = [v for layer in trace.layers for v in layer]
            assert len(flat) == len(set(flat))
            # each later layer holds exactly the newly eligible vertices
            active = set(trace.layers[0])
            for layer in trace.layers[1:]:
                eligible = {
                    v
                    for v in range(g.n)
                    if v not in active
                    and sum(1 for u in g.adjacency[v] if u in active) >= tau[v]
                }
                assert layer == eligible and layer
                active |= layer
            # no further vertex is eligible at the end
            assert not {
                v
                for v in range(g.n)
                if v not in active
                and sum(1 for u in g.adjacency[v] if u in active) >= tau[v]
            }

    def test_long_chain_in_linear_time(self):
        # one vertex a round for 19,999 rounds: ``reference_spread``, which
        # rescans every inactive vertex each round, takes 29 s on a 2-vCPU
        # AMD EPYC
        g = path_graph(20000)
        started = time.perf_counter()
        trace = simulate_spread(g, [1] * g.n, [0])
        elapsed = time.perf_counter() - started
        assert trace.activated_all and trace.rounds == g.n - 1
        assert all(layer == {v} for v, layer in enumerate(trace.layers))
        assert elapsed < 1.0, f"spread took {elapsed:.2f}s"

    def test_seed_monotonicity(self):
        rng = random.Random(15)
        for _ in range(25):
            g = random_graph(rng.randint(1, 8), 0.5, rng)
            tau = [rng.randint(0, g.degree(v)) for v in range(g.n)]
            small = {v for v in range(g.n) if rng.random() < 0.3}
            big = small | {v for v in range(g.n) if rng.random() < 0.3}
            assert simulate_spread(g, tau, small).activated() <= simulate_spread(
                g, tau, big
            ).activated()

    def test_full_degree_thresholds(self):
        g = random_graph(6, 0.5, random.Random(3))
        tau = list(g.degrees)
        assert is_dynamic_monopoly(g, tau, range(6))


class TestMonopolyChecks:
    def test_whole_vertex_set(self):
        g = random_graph(5, 0.6, random.Random(2))
        tau = [g.degree(v) for v in range(5)]
        assert is_monopoly(g, tau, range(5))

    def test_star_center(self):
        g = star_graph(3)
        assert is_monopoly(g, [1, 1, 1, 1], {0})

    def test_cycle_counterexample(self):
        assert not is_monopoly(cycle_graph(4), [2, 2, 2, 2], {0})


class TestWitnessConstructions:
    def test_monopoly_witness_examples(self):
        c4 = cycle_graph(4)
        phi = monopoly_witness_tau(c4, {0})
        assert phi.values == (2, 1, 0, 1)
        assert phi.total == 2 * coverage(c4, {0})
        assert monopoly_witness_tau(c4, set()).values == (0, 0, 0, 0)
        full = monopoly_witness_tau(c4, range(4))
        assert full.total == 2 * c4.m

    def test_dynamo_witness_examples(self):
        c4 = cycle_graph(4)
        psi = dynamo_witness_tau(c4, {0})
        assert psi.values == (2, 1, 1, 2)
        assert psi.total == c4.m + coverage(c4, {0}) == 6
        edgeless = Graph.from_edges(3, [])
        assert dynamo_witness_tau(edgeless, {1}).total == 0
        assert dynamo_witness_tau(c4, range(4)).total == 2 * c4.m

    def test_soundness_over_all_subsets(self):
        rng = random.Random(31)
        for _ in range(15):
            g = random_graph(rng.randint(1, 7), 0.5, rng)
            for mask in range(1 << g.n):
                s = frozenset(v for v in range(g.n) if (mask >> v) & 1)
                cov = coverage(g, s)
                phi = monopoly_witness_tau(g, s)
                assert phi.total == 2 * cov
                assert is_monopoly(g, phi, s)
                psi = dynamo_witness_tau(g, s)
                assert psi.total == g.m + cov
                assert is_dynamic_monopoly(g, psi, s)


class TestSmon:
    def test_cycle(self):
        res = smon(cycle_graph(4), 1)
        assert res.size == 1
        assert is_monopoly(cycle_graph(4), res.tau, res.monopoly)
        assert res.tau.total >= 4

    def test_star_fractional(self):
        res = smon(star_graph(5), Fraction(5, 3))
        assert res.size == 1 and res.tau.total >= 10

    def test_tiny_positive_average(self):
        g = cycle_graph(4)
        assert smon(g, Fraction(1, 100)).size >= 1
        assert smon(g, 0).size == 0

    def test_infeasible(self):
        with pytest.raises(InfeasibleTargetError):
            smon(cycle_graph(4), Fraction(5, 2))

    def test_floats_rejected(self):
        with pytest.raises(TypeError):
            smon(cycle_graph(4), 0.5)


class TestSdyn:
    def test_cycle_values(self):
        c4 = cycle_graph(4)
        res = sdyn(c4, Fraction(3, 2))
        assert res.size == 1
        assert is_dynamic_monopoly(c4, res.witness_tau, res.seed)
        zero = sdyn(c4, 1)
        assert zero.size == 0 and zero.seed == frozenset()

    def test_complete_graph_values(self):
        k4 = complete_graph(4)
        assert sdyn(k4, 2).size == 1  # required total 8, cover target 2
        assert sdyn(k4, 3).size == 3  # boundary: total 12 = degree sum

    def test_zero_whenever_total_at_most_m(self):
        rng = random.Random(12)
        for _ in range(20):
            g = random_graph(rng.randint(1, 8), 0.6, rng)
            if g.m == 0:
                continue
            t = Fraction(g.m, g.n)  # ceil(n t) == m
            assert sdyn(g, t).size == 0

    def test_infeasible(self):
        with pytest.raises(InfeasibleTargetError):
            sdyn(cycle_graph(4), Fraction(21, 10))


class TestSdynViaSubgraph:
    def test_examples(self):
        c4 = cycle_graph(4)
        size, witness = sdyn_via_subgraph(c4, Fraction(3, 2))
        assert size == 1 and len(witness) == 3
        size, witness = sdyn_via_subgraph(c4, 1)
        assert size == 0 and witness == frozenset(range(4))
        size, _ = sdyn_via_subgraph(complete_graph(4), 3)
        assert size == 3

    def test_guard(self):
        big = random_graph(15, 0.2, random.Random(1))
        with pytest.raises(ValueError):
            sdyn_via_subgraph(big, 1)

    def test_sparse_profile_refuses_what_it_cannot_enumerate(self):
        # the enumeration kernel's refusal, before any of the 2^40 subsets
        # is built
        tracemalloc.start()
        try:
            with pytest.raises(ValueError) as caught:
                sparse_profile(Graph.from_edges(40, []))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert str(caught.value) == "subset enumeration guard: n=40 > 26"
        assert peak < 1 << 20

    def test_agreement_with_solver(self):
        rng = random.Random(44)
        for _ in range(25):
            g = random_graph(rng.randint(1, 8), 0.5, rng)
            for q in (1, 2, 3):
                for p in range(1, 2 * g.m + 1):
                    t = Fraction(p, q)
                    if g.n * t > 2 * g.m:
                        continue
                    assert sdyn(g, t).size == sdyn_via_subgraph(g, t)[0]


class TestDecisionForms:
    def test_smon_decide(self):
        c4 = cycle_graph(4)
        assert smon_decide(c4, 1, 1)
        assert not smon_decide(c4, 0, 1)
        assert smon_decide(c4, 4, Fraction(3, 2))

    def test_sdyn_decide(self):
        c4 = cycle_graph(4)
        assert sdyn_decide(c4, 1, Fraction(3, 2))
        assert not sdyn_decide(c4, 0, Fraction(3, 2))
        assert sdyn_decide(c4, 4, Fraction(3, 2))

    def test_factor_ranges(self):
        c4 = cycle_graph(4)
        for bad in (0, 2, -1):
            with pytest.raises(ValueError):
                smon_decide(c4, 1, bad)
        for bad in (1, 2, Fraction(1, 2)):
            with pytest.raises(ValueError):
                sdyn_decide(c4, 1, bad)

    def test_negative_bound_and_empty_graph(self):
        # ValueError, never ZeroDivisionError from the empty graph's average
        empty = Graph.from_edges(0, [])
        for decide, k in ((smon_decide, 1), (sdyn_decide, Fraction(3, 2))):
            with pytest.raises(ValueError, match="nonnegative"):
                decide(cycle_graph(4), -1, k)
            with pytest.raises(ValueError, match="empty graph"):
                decide(empty, 1, k)


def test_large_tree_monopolies_use_the_tree_solver():
    # far beyond branch-and-bound: both answers must come from the tree DP
    g = random_tree(300, random.Random(1))
    t = Fraction(19, 10)
    nt = g.n * t
    mon = smon(g, t)
    assert mon.size == pvc_tree(g, math.ceil(nt / 2)).size
    assert is_monopoly(g, mon.tau, mon.monopoly)
    dyn = sdyn(g, t)
    assert dyn.size == pvc_tree(g, math.ceil(nt) - g.m).size
    assert is_dynamic_monopoly(g, dyn.witness_tau, dyn.seed)


def test_large_tree_decide_forms_use_the_tree_solver():
    # branch-and-bound ran past a minute on these; 115 is the smon optimum
    g = random_tree(300, random.Random(1))
    k = Fraction(19, 10)
    started = time.perf_counter()
    assert smon_decide(g, 115, k) is True
    assert smon_decide(g, 114, k) is False
    d = pvc_tree(g, math.ceil(k * g.m) - g.m).size
    assert sdyn_decide(g, d, k) is True
    assert sdyn_decide(g, d - 1, k) is False
    assert time.perf_counter() - started < 2.0


def test_settled_decides_make_no_solve(monkeypatch):
    # a decide the greedy (at most d picks) or the degree-sum bound (the d
    # largest degrees cover fewer than the target) settles never solves;
    # every other one solves once
    import pvcmon.monopoly
    import pvcmon.pvc

    calls = []
    solve = pvcmon.pvc.solve_pvc

    def counted(graph, t):
        calls.append(t)
        return solve(graph, t)

    monkeypatch.setattr(pvcmon.pvc, "solve_pvc", counted)
    monkeypatch.setattr(pvcmon.monopoly, "solve_pvc", counted)
    rng = random.Random(18)
    solved = 0
    for _ in range(40):
        g = random_graph(rng.randint(1, 9), rng.choice((0.3, 0.5, 0.8)), rng)
        degrees = sorted(g.degrees, reverse=True)
        jobs = [(lambda d, t=t: pvc_decide(PvcbInstance(g, d, t)), t) for t in range(g.m + 1)]
        for k in (Fraction(1, 3), Fraction(1, 1), Fraction(5, 3)):
            total = math.ceil(k * g.m)
            jobs.append((lambda d, k=k: smon_decide(g, d, k), math.ceil(Fraction(total, 2))))
            if k > 1:
                jobs.append((lambda d, k=k: sdyn_decide(g, d, k), total - g.m))
        for decide, target in jobs:
            greedy = pvc_greedy_upper(g, target).size
            for d in range(g.n + 1):
                calls.clear()
                decide(d)
                settled = greedy <= d or sum(degrees[:d]) < target
                assert calls == ([] if settled else [target])
                solved += not settled
    assert solved  # the corpus also holds decides that only a solve settles
