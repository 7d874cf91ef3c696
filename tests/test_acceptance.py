"""End-to-end acceptance battery.

Each test is one exit criterion, exact (no tolerances); run with
``pytest tests/test_acceptance.py -v`` to get one pass/fail line per
criterion.
"""

import math
import random
import time
from fractions import Fraction
from pathlib import Path

import pytest

from pvcmon import (
    InfeasibleTargetError,
    build_gadget,
    gadget_edge_list,
    gadget_sidecar_json,
    is_dynamic_monopoly,
    is_monopoly,
    pvc_degree_greedy,
    pvc_exact,
    pvc_tree,
    sdyn,
    sdyn_via_subgraph,
    simulate_spread,
    smon,
)
from pvcmon.corpus import (
    all_free_trees,
    all_labeled_graphs,
    cycle_graph,
    random_bipartite_degree_dominant,
    random_graph,
    random_tree,
)
from pvcmon.oracles import cover_profile, max_independent_set_size
from pvcmon.verify import (
    _feasible_averages,
    lemma1_battery,
    lemma2_battery,
    theorem_battery,
    theorem_corpus,
)

DATA = Path(__file__).parent / "data"


def test_c1_exact_solver_matches_subset_enumeration():
    # every labeled graph with n <= 6, every target
    checked = 0
    for n in range(1, 7):
        for g in all_labeled_graphs(n):
            profile = cover_profile(g)
            for t in range(g.m + 1):
                expected = next(k for k, c in enumerate(profile) if c >= t)
                assert pvc_exact(g, t).size == expected
                checked += 1
    # plus 200 random graphs with n = 8
    rng = random.Random(1408)
    for _ in range(200):
        g = random_graph(8, rng.choice((0.2, 0.35, 0.5, 0.65, 0.8)), rng)
        profile = cover_profile(g)
        for t in range(g.m + 1):
            expected = next(k for k, c in enumerate(profile) if c >= t)
            assert pvc_exact(g, t).size == expected
            checked += 1
    assert checked > 100_000


def test_c2_c3_monopoly_identities_against_enumeration():
    # covers both the static identity (witness-total route and cover route)
    # and the dynamic identity (sparse-subgraph route + simulation checks)
    report = theorem_battery(n_graphs=500, max_n=8, seed=20240817)
    assert report.instances >= 2000
    assert report.passed, report.failures[:3]


def test_c3_dynamic_witnesses_resimulate():
    # explicit re-verification of emitted seeds on a corpus slice
    rng = random.Random(99)
    for _ in range(60):
        g = random_graph(rng.randint(1, 8), 0.5, rng)
        for t in _feasible_averages(g)[:6]:
            res = sdyn(g, t)
            assert res.size == sdyn_via_subgraph(g, t)[0]
            trace = simulate_spread(g, res.witness_tau, res.seed)
            assert trace.activated_all
            assert res.witness_tau.total >= math.ceil(g.n * t)


def test_c4_pendant_battery_exhaustive():
    report = lemma1_battery(max_n=5)
    assert report.instances == 38235
    assert report.passed, report.failures[:3]


def test_c5_gadget_battery_exhaustive():
    report = lemma2_battery(max_n=4, rhos=(Fraction(1, 3), Fraction(1, 2), Fraction(2, 3)))
    assert report.instances == 4113
    assert report.passed, report.failures[:3]
    # each flag is the record of one instance with k = n
    assert len(report.flagged) == 840
    assert all(list(rec) == ["n", "edges", "k", "t", "rho"] and rec["k"] == rec["n"] for rec in report.flagged)


def test_c6_degree_greedy_matches_exact():
    rng = random.Random(606)
    seen = 0
    while seen < 300:
        g, _ = random_bipartite_degree_dominant(rng)
        seen += 1
        for t in range(g.m + 1):
            assert pvc_degree_greedy(g, t).size == pvc_exact(g, t).size


def test_c7_tree_solver_matches_exact_and_scales():
    for n in range(1, 11):
        for g in all_free_trees(n):
            for t in range(g.m + 1):
                assert pvc_tree(g, t).size == pvc_exact(g, t).size
    rng = random.Random(707)
    for _ in range(100):
        g = random_tree(rng.randint(2, 18), rng)
        for t in range(g.m + 1):
            assert pvc_tree(g, t).size == pvc_exact(g, t).size
    big = random_tree(2000, random.Random(2000))
    started = time.perf_counter()
    res = pvc_tree(big, big.m)
    elapsed = time.perf_counter() - started
    assert res.achieved_coverage == big.m
    assert elapsed < 10.0, f"tree solve took {elapsed:.2f}s"


def test_c8_boundary_laws():
    rng = random.Random(808)
    # zero target and classical cover boundary, against an independent
    # maximum-independent-set enumeration
    for _ in range(60):
        g = random_graph(rng.randint(1, 10), rng.choice((0.3, 0.5, 0.7)), rng)
        assert pvc_exact(g, 0).size == 0
        assert pvc_exact(g, g.m).size == g.n - max_independent_set_size(g)
    # dynamic size is zero exactly while the required total stays within m;
    # infeasibility errors appear exactly above the degree sum
    for g in theorem_corpus(n_graphs=80, max_n=8, seed=42):
        if g.n == 0:
            continue
        for q in (1, 2, 3):
            for p in range(1, 2 * g.m + 2):
                t = Fraction(p, q)
                if g.n * t > 2 * g.m:
                    with pytest.raises(InfeasibleTargetError):
                        smon(g, t)
                    with pytest.raises(InfeasibleTargetError):
                        sdyn(g, t)
                else:
                    res = sdyn(g, t)
                    if math.ceil(g.n * t) <= g.m:
                        assert res.size == 0 and res.seed == frozenset()
                    mon = smon(g, t)
                    assert is_monopoly(g, mon.tau, mon.monopoly)
                    assert is_dynamic_monopoly(g, res.witness_tau, res.seed)


def test_c9_golden_gadget_bytes():
    inst = build_gadget(cycle_graph(4), 1, 2, Fraction(1, 2))
    assert inst.r == 25 and inst.s == 21
    assert inst.graph.n == 63 and inst.graph.m == 63
    golden_edges = (DATA / "gadget_c4_k1_t2_rho1_2.edgelist").read_text(encoding="utf-8")
    golden_meta = (DATA / "gadget_c4_k1_t2_rho1_2.json").read_text(encoding="utf-8")
    assert gadget_edge_list(inst) == golden_edges
    assert gadget_sidecar_json(inst) == golden_meta
