"""Property tests over random small graphs, driven by hypothesis."""

import math
from fractions import Fraction
from itertools import combinations

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from pvcmon import (
    PvcbInstance,
    coverage,
    dynamo_witness_tau,
    monopoly_witness_tau,
    parse_graph,
    pick_solver,
    pvc_decide,
    pvc_exact,
    pvc_greedy_upper,
    sdyn,
    sdyn_decide,
    sdyn_via_subgraph,
    smon,
    smon_decide,
    solve_pvc,
    to_edge_list_text,
    verify_lemma1,
    verify_lemma2,
)
from pvcmon.corpus import complete_bipartite
from pvcmon.graph import Graph
from pvcmon.oracles import cover_profile
from pvcmon.pvc import EXACT_MAX_N, METHOD_DEGREE_GREEDY, METHOD_TREE
from pvcmon.monopoly import sparse_profile
from pvcmon.verify import DEFAULT_RHOS, _feasible_averages, theorem_corpus
from util import fresh_copy, solver_answers


@st.composite
def graphs(draw, min_n=0, max_n=10):
    n = draw(st.integers(min_n, max_n))
    pairs = list(combinations(range(n), 2))
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return Graph.from_edges(n, [e for e, k in zip(pairs, keep) if k])


@st.composite
def forests(draw, min_n=EXACT_MAX_N + 1, max_n=45):
    # each vertex after the first hangs off an earlier one, or starts a new tree
    n = draw(st.integers(min_n, max_n))
    parents = [draw(st.integers(-1, v - 1)) for v in range(1, n)]
    return Graph.from_edges(n, [(p, v) for v, p in enumerate(parents, start=1) if p >= 0])


@settings(max_examples=150, deadline=None)
@given(graphs())
def test_decide_agrees_with_exact_size(g):
    profile = cover_profile(g)
    for t in range(g.m + 1):
        res = pvc_exact(g, t)
        assert res.size == min(k for k, c in enumerate(profile) if c >= t)
        assert len(res.witness) == res.size
        assert coverage(g, res.witness) >= t
        for k in range(g.n + 1):
            assert pvc_decide(PvcbInstance(g, k, t)) == (res.size <= k)


@settings(max_examples=150, deadline=None)
@given(graphs())
def test_greedy_upper_bound_witnesses(g):
    prev = frozenset()
    for t in range(g.m + 1):
        res = pvc_greedy_upper(g, t)
        assert res.achieved_coverage == coverage(g, res.witness) >= t
        assert res.size == len(res.witness)
        # one pick order serves every target, so the witnesses grow with t
        assert prev <= res.witness
        prev = res.witness
    if g.m:
        # the first pick is the lowest-id vertex of maximum degree
        assert pvc_greedy_upper(g, 1).witness == {g.degrees.index(max(g.degrees))}


@settings(max_examples=100, deadline=None)
@given(graphs(max_n=9), st.randoms(use_true_random=False))
def test_shared_graph_answers_match_fresh_graphs(g, rng):
    # the solver state a graph object keeps between queries must not change
    # any answer, whatever order the targets come in
    queries = [(g, k, t) for k in range(g.n + 1) for t in range(g.m + 1)]
    rng.shuffle(queries)
    assert solver_answers(queries, lambda h: h) == solver_answers(queries, fresh_copy)


@settings(max_examples=100, deadline=None)
@given(graphs(max_n=8))
def test_sparse_profile_and_subgraph_oracle(g):
    def induced(subset):
        return sum(1 for u, v in g.edges if u in subset and v in subset)

    profile = sparse_profile(g)
    for s in range(g.n + 1):
        counts = {induced(set(c)) for c in combinations(range(g.n), s)}
        assert set(profile[s]) == counts
        for inside, mask in profile[s].items():
            assert mask.bit_count() == s
            assert induced({v for v in range(g.n) if (mask >> v) & 1}) == inside
    for t in _feasible_averages(g):
        budget = 2 * g.m - math.ceil(g.n * t)
        size, witness = sdyn_via_subgraph(g, t)
        assert (size, witness) == sdyn_via_subgraph(g, t, profile=profile)
        assert size == sdyn(g, t).size
        # the witness is a largest subset inducing at most the budget
        assert len(witness) == g.n - size and induced(witness) <= budget
        assert all(induced(set(c)) > budget for c in combinations(range(g.n), len(witness) + 1))


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_witness_totals(data):
    g = data.draw(graphs())
    keep = data.draw(st.lists(st.booleans(), min_size=g.n, max_size=g.n))
    subset = [v for v in range(g.n) if keep[v]]
    cov = coverage(g, subset)
    assert monopoly_witness_tau(g, subset).total == 2 * cov
    assert dynamo_witness_tau(g, subset).total == g.m + cov


@settings(max_examples=150, deadline=None)
@given(graphs(max_n=15))
def test_edge_list_text_round_trips(g):
    text = to_edge_list_text(g)
    assert parse_graph(text) == g
    assert to_edge_list_text(parse_graph(text)) == text


@settings(max_examples=40, deadline=None)
@given(graphs(min_n=1, max_n=5))
def test_lemma_wrappers_hold(g):
    for k in range(g.n + 1):
        for t in range(g.m + 1):
            assert verify_lemma1(g, k, t)
            for rho in DEFAULT_RHOS:
                assert verify_lemma2(g, k, t, rho)


@settings(max_examples=100, deadline=None)
@given(graphs(min_n=1))
def test_monopolies_are_partial_covers(g):
    # Smon_t = P_{ceil(nt/2)} and Sdyn_t = P_{ceil(nt) - m}, for every average
    # t = p / 2n with nt between 0 and 2m
    sizes = [pvc_exact(g, t).size for t in range(g.m + 1)]
    for p in range(4 * g.m + 1):
        t = Fraction(p, 2 * g.n)
        nt = g.n * t
        assert smon(g, t).size == sizes[math.ceil(nt / 2)]
        assert sdyn(g, t).size == sizes[max(0, math.ceil(nt) - g.m)]


@settings(max_examples=100, deadline=None)
@given(graphs(min_n=1))
def test_monopoly_decide_forms_agree_with_sizes(g):
    sizes = [pvc_exact(g, t).size for t in range(g.m + 1)]
    for j in range(1, 8):
        k = Fraction(j, 4)
        total = math.ceil(k * g.m)  # ceil(n * k * density), density = m / n
        for d in range(g.n + 2):
            assert smon_decide(g, d, k) == (sizes[math.ceil(Fraction(total, 2))] <= d)
            if k > 1:
                assert sdyn_decide(g, d, k) == (sizes[max(0, total - g.m)] <= d)


@settings(max_examples=30, deadline=None)
@given(forests())
def test_solver_dispatch_exact_on_forests_above_crossover(g):
    assert pick_solver(g) == METHOD_TREE
    for t in range(g.m + 1):
        res = solve_pvc(g, t)
        assert res.size == pvc_exact(g, t).size
        assert coverage(g, res.witness) >= t


def _ladder_bipartite(x: int) -> Graph:
    # X vertex i sees Y vertices 2i, 2i + 1, 2i + 2 (mod 2x): X degrees 3,
    # Y degrees at most 2, with cycles through the wrap-around
    y = 2 * x
    return Graph.from_edges(x + y, [(i, x + (j % y)) for i in range(x) for j in (2 * i, 2 * i + 1, 2 * i + 2)])


@pytest.mark.parametrize(
    "g",
    [complete_bipartite(4, 30), complete_bipartite(30, 4), complete_bipartite(3, 40), _ladder_bipartite(12)],
    ids=["K4,30", "K30,4", "K3,40", "ladder36"],
)
def test_solver_dispatch_exact_on_dominant_bipartite_above_crossover(g):
    assert g.n > EXACT_MAX_N
    assert pick_solver(g) == METHOD_DEGREE_GREEDY
    for t in range(g.m + 1):
        res = solve_pvc(g, t)
        assert res.size == pvc_exact(g, t).size
        assert coverage(g, res.witness) >= t


def test_feasible_averages_match_fraction_filter():
    # the integer filter p n <= 2m q keeps exactly the averages p/q with
    # (p/q) n <= 2m, over the theorem battery's whole corpus
    for g in theorem_corpus():
        by_fractions = sorted({
            Fraction(p, q)
            for q in (1, 2, 3)
            for p in range(1, 2 * g.m + 1)
            if Fraction(p, q) * g.n <= 2 * g.m
        })
        assert _feasible_averages(g) == by_fractions
