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
    pick_solver,
    pvc_decide,
    pvc_exact,
    sdyn,
    sdyn_decide,
    smon,
    smon_decide,
    solve_pvc,
)
from pvcmon.corpus import complete_bipartite
from pvcmon.graph import Graph
from pvcmon.oracles import cover_profile
from pvcmon.pvc import EXACT_MAX_N, METHOD_DEGREE_GREEDY, METHOD_TREE


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
