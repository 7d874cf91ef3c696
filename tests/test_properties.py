"""Property tests over random small graphs and min-plus operands, driven by hypothesis."""

import math
from fractions import Fraction
from itertools import combinations
from unittest import mock

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from pvcmon import (
    GraphFormatError,
    InfeasibleTargetError,
    PvcbInstance,
    ThresholdAssignment,
    coverage,
    dynamo_witness_tau,
    is_dynamic_monopoly,
    is_monopoly,
    monopoly_witness_tau,
    parse_graph,
    pick_solver,
    pvc_decide,
    pvc_exact,
    pvc_greedy_upper,
    pvc_rho_decide,
    sdyn,
    sdyn_decide,
    sdyn_via_subgraph,
    simulate_spread,
    smon,
    smon_decide,
    solve_pvc,
    to_edge_list_text,
    verify_lemma1,
    verify_lemma2,
)
from pvcmon import kernels, pvc
from pvcmon.corpus import complete_bipartite
from pvcmon.graph import Graph
from pvcmon.oracles import cover_profile
from pvcmon.pvc import EXACT_MAX_N, METHOD_DEGREE_GREEDY, METHOD_TREE
from pvcmon.monopoly import _dynamic_target, _required_total, _static_target, sparse_profile
from pvcmon.verify import DEFAULT_RHOS, _feasible_averages, _required_totals, theorem_corpus
from util import (
    fresh_copy,
    reference_dynamo_witness_tau,
    reference_for_graph,
    reference_is_monopoly,
    reference_monopoly_witness_tau,
    reference_spread,
    reference_vertex_subset,
    solver_answers,
)


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


@settings(max_examples=300, deadline=None)
@given(graphs(max_n=12), st.data())
def test_spread_matches_the_round_by_round_reference(g, data):
    tau = [data.draw(st.integers(0, d)) for d in g.degrees]
    seed = data.draw(st.sets(st.integers(0, g.n - 1))) if g.n else set()
    assert simulate_spread(g, tau, seed) == reference_spread(g, tau, seed)


def _outcome(fn, *args):
    # a call's result, or the type and message of the error it raised
    try:
        return fn(*args)
    except (TypeError, ValueError) as exc:
        return type(exc), str(exc)


def _reference_checked_spread(g, tau, seed):
    # the spread after the checks simulate_spread makes, in its order
    reference_for_graph(g, tau)
    reference_vertex_subset(g, seed)
    return reference_spread(g, tau, seed)


@settings(max_examples=400, deadline=None)
@given(graphs(max_n=12), st.data())
def test_witness_layer_matches_frozen_references(g, data):
    # valid ids, or ids that may fall outside 0..n-1
    in_range = st.sets(st.integers(0, g.n - 1)) if g.n else st.just(set())
    subset = data.draw(in_range | st.sets(st.integers(-2, g.n + 1), max_size=4))
    valid_subset = all(0 <= v < g.n for v in subset)
    kind = data.draw(st.sampled_from(("random", "static", "dynamic", "negative", "above", "short", "long")))
    tau = [data.draw(st.integers(0, d)) for d in g.degrees]
    if kind == "static" and valid_subset:
        tau = list(reference_monopoly_witness_tau(g, subset).values)
    elif kind == "dynamic" and valid_subset:
        tau = list(reference_dynamo_witness_tau(g, subset).values)
    elif kind in ("negative", "above") and g.n:
        v = data.draw(st.integers(0, g.n - 1))
        tau[v] = -data.draw(st.integers(1, 3)) if kind == "negative" else g.degree(v) + data.draw(st.integers(1, 3))
    elif kind == "short" and g.n:
        tau.pop()
    elif kind == "long":
        tau.append(0)
    # an assignment built unchecked is checked against the graph again
    as_given = data.draw(st.sampled_from((tau, tuple(tau), ThresholdAssignment(tuple(tau)))))

    assert _outcome(ThresholdAssignment.for_graph, g, tau) == _outcome(reference_for_graph, g, tau)
    assert _outcome(is_monopoly, g, as_given, subset) == _outcome(reference_is_monopoly, g, as_given, subset)
    assert _outcome(monopoly_witness_tau, g, subset) == _outcome(reference_monopoly_witness_tau, g, subset)
    assert _outcome(dynamo_witness_tau, g, subset) == _outcome(reference_dynamo_witness_tau, g, subset)
    spread = _outcome(_reference_checked_spread, g, tau, subset)
    assert _outcome(simulate_spread, g, as_given, subset) == spread
    activated_all = spread.activated_all if hasattr(spread, "activated_all") else spread
    assert _outcome(is_dynamic_monopoly, g, as_given, subset) == activated_all


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


@settings(max_examples=100, deadline=None)
@given(graphs(min_n=1, max_n=12), st.integers(2, 10**9), st.booleans())
def test_monopoly_decide_forms_answer_as_the_solves(g, q, upper):
    # each decide equals its solve at the average ceil(k*m)/n, for k within
    # 1/q of the low or the high end of its range, on graph objects that
    # share no solver state
    for decide, solve, low in ((smon_decide, smon, 0), (sdyn_decide, sdyn, 1)):
        k = 2 - Fraction(1, q) if upper else low + Fraction(1, q)
        size = solve(fresh_copy(g), Fraction(math.ceil(k * g.m), g.n)).size
        for d in range(g.n + 2):
            assert decide(fresh_copy(g), d, k) == (size <= d)


@settings(max_examples=30, deadline=None)
@given(forests())
def test_solver_dispatch_exact_on_forests_above_crossover(g):
    assert pick_solver(g) == METHOD_TREE
    for t in range(g.m + 1):
        res = solve_pvc(g, t)
        assert res.size == pvc_exact(g, t).size
        assert coverage(g, res.witness) >= t
        if t >= 1:
            assert pvc_decide(PvcbInstance(g, res.size, t))
            assert not pvc_decide(PvcbInstance(g, res.size - 1, t))


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


@st.composite
def edge_inputs(draw, max_n=30):
    # an edge set on n vertices, some of them isolated, and the same edges
    # in a shuffled order with random ones given as (v, u)
    n = draw(st.integers(0, max_n))
    pairs = list(combinations(range(n), 2))
    edges = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=2 * n)) if pairs else []
    shuffled = draw(st.permutations(edges))
    flips = draw(st.lists(st.booleans(), min_size=len(edges), max_size=len(edges)))
    return n, sorted(edges), [(v, u) if flip else (u, v) for (u, v), flip in zip(shuffled, flips)]


@settings(max_examples=300, deadline=None)
@given(edge_inputs())
def test_adjacency_is_increasing_and_input_order_free(case):
    nx = pytest.importorskip("networkx")
    n, edges, scrambled = case
    g = Graph.from_edges(n, scrambled)
    ref = nx.Graph()
    ref.add_nodes_from(range(n))
    ref.add_edges_from(edges)
    assert type(g.adjacency) is tuple and len(g.adjacency) == n
    for v, nbrs in enumerate(g.adjacency):
        assert type(nbrs) is tuple
        assert all(a < b for a, b in zip(nbrs, nbrs[1:]))
        assert nbrs == tuple(sorted(ref.neighbors(v)))
    assert g == Graph.from_edges(n, edges)  # eq compares n, edges and adjacency


@settings(max_examples=200, deadline=None)
@given(edge_inputs(), st.data())
def test_parse_reads_scrambled_crlf_text_and_names_an_injected_duplicate(case, data):
    n, edges, scrambled = case

    def text(pairs):
        # CRLF line ends, with blank and comment lines around the data lines
        lines = []
        for line in (f"{n} {len(pairs)}", *(f"{u} {v}" for u, v in pairs)):
            lines += data.draw(st.lists(st.sampled_from(("", " \t", "# 0 1", "  #")), max_size=2))
            lines.append(line)
        return "\r\n".join(lines) + "\r\n"

    assert parse_graph(text(scrambled)) == Graph.from_edges(n, edges)
    if edges:
        u, v = data.draw(st.sampled_from(edges))
        at = data.draw(st.integers(0, len(scrambled)))
        again = data.draw(st.sampled_from(((u, v), (v, u))))
        with pytest.raises(GraphFormatError) as caught:
            parse_graph(text([*scrambled[:at], again, *scrambled[at:]]))
        assert str(caught.value) == f"duplicate edge {(u, v)}"


@st.composite
def walk_graphs(draw, max_n=40):
    # a random forest (each vertex hangs off an earlier one or starts a new
    # tree, so some stay isolated), a few extra edges that may close even or
    # odd cycles, and a random relabelling, so roots are not always id 0
    n = draw(st.integers(0, max_n))
    edges = {(p, v) for v in range(1, n) if (p := draw(st.integers(-2, v - 1))) >= 0}
    if n >= 2:
        for u, v in draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=4)):
            if u != v:
                edges.add((min(u, v), max(u, v)))
    label = draw(st.permutations(range(n)))
    return Graph.from_edges(n, [(label[u], label[v]) for u, v in edges])


@settings(max_examples=300, deadline=None)
@given(walk_graphs())
def test_walk_agrees_with_networkx(g):
    nx = pytest.importorskip("networkx")
    from pvcmon.graph import is_forest, walk

    ref = nx.Graph()
    ref.add_nodes_from(range(g.n))
    ref.add_edges_from(g.edges)
    # networkx calls the graph without vertices pointless and raises
    assert is_forest(g) == (g.n == 0 or nx.is_forest(ref))
    lowest = sorted(min(c) for c in nx.connected_components(ref))
    w = walk(g)
    assert (w.side is None) == (not nx.is_bipartite(ref))
    if w.side is not None:
        assert len(w.side) == g.n and set(w.side) <= {0, 1}
        assert all(w.side[u] != w.side[v] for u, v in g.edges)
        assert all(w.side[r] == 0 for r in lowest)
    assert sorted(w.order) == list(range(g.n))
    if w.forest:
        assert w.roots == lowest
        assert all(list(kids) == sorted(kids) for kids in w.children)
        assert sorted((min(v, u), max(v, u)) for v, kids in enumerate(w.children) for u in kids) == list(g.edges)


_CELLS = st.one_of(st.integers(0, 1000), st.just(kernels.INF))
# short lengths give folds under kernels.LIST_CELLS sums a row, long ones over
_LENGTHS = st.one_of(st.integers(1, 8), st.integers(1, 60))


@st.composite
def minplus_tables(draw, length):
    """A (2, length) table as two row lists, INF cells and all-INF rows included."""
    rows = [draw(st.lists(_CELLS, min_size=length, max_size=length)) for _ in range(2)]
    unreachable = draw(st.sampled_from((None, 0, 1)))
    if unreachable is not None:
        rows[unreachable] = [kernels.INF] * length
    return rows


@settings(max_examples=300, deadline=None)
@given(st.data(), _LENGTHS, _LENGTHS, st.sampled_from(("lists", "arrays", "list-array", "array-list")))
def test_minplus_forms_match_naive(data, la, lb, forms):
    import numpy as np
    from test_kernels import _naive_minplus

    a_rows = data.draw(minplus_tables(la))
    b_rows = data.draw(minplus_tables(lb))
    # no cut, or a cut anywhere from one cell to past the whole convolution
    size = data.draw(st.one_of(st.none(), st.integers(1, la + lb)))
    width = la + lb - 1 if size is None else min(la + lb - 1, size)
    a = tuple(map(list, a_rows)) if forms in ("lists", "list-array") else np.array(a_rows, dtype=np.int64)
    b = tuple(map(list, b_rows)) if forms in ("lists", "array-list") else np.array(b_rows, dtype=np.int64)
    out = kernels.minplus(a, b, size)
    assert [list(map(int, row)) for row in out] == [_naive_minplus(ra, rb)[:width] for ra, rb in zip(a_rows, b_rows)]
    # the plain-Python loop answers exactly the short folds of two list tables
    if forms == "lists" and la * lb <= kernels.LIST_CELLS:
        assert type(out) is tuple and all(type(row) is list for row in out)
    else:
        assert type(out) is np.ndarray and out.dtype == np.int64 and out.shape == (2, width)
    # the inputs are left as they were
    assert [list(map(int, row)) for row in a] == a_rows and [list(map(int, row)) for row in b] == b_rows


@settings(max_examples=300, deadline=None)
@given(st.data(), st.integers(1, 12), st.integers(1, 12))
def test_minplus_lists_match_frozen_reference(data, la, lb):
    # the one-pass list loop against the loop it replaced, on rows of one
    # cell and either operand longer, at no cut and at every cut
    from util import reference_minplus_lists

    a = tuple(data.draw(minplus_tables(la)))
    b = tuple(data.draw(minplus_tables(lb)))
    for size in (None, *range(1, la + lb + 1)):
        out = kernels._minplus_lists(a, b, size)
        assert type(out) is tuple and all(type(row) is list for row in out)
        assert out == reference_minplus_lists(a, b, size)


def _outcome(fn, *args):
    try:
        return fn(*args)
    except (ValueError, InfeasibleTargetError) as exc:
        return type(exc), str(exc)


def _fraction_total(graph, t):
    # the Fraction formula the integer forms replace
    if t < 0:
        raise ValueError(f"average threshold must be nonnegative, got {t}")
    nt = graph.n * t
    if nt > 2 * graph.m:
        raise InfeasibleTargetError(f"no valid assignment: required total {nt} exceeds degree sum {2 * graph.m}")
    return nt


def _fraction_rho_target(graph, rho):
    if not (0 < rho < 1):
        raise ValueError(f"rho must lie strictly between 0 and 1, got {rho}")
    return math.ceil(rho * graph.m)


@settings(max_examples=400, deadline=None)
@given(st.integers(0, 12), st.data(), st.integers(-60, 60), st.integers(1, 25))
def test_integer_targets_match_fraction_formulas(n, data, p, q):
    pairs = list(combinations(range(n), 2))
    graph = Graph.from_edges(n, pairs[:data.draw(st.integers(0, len(pairs)))])
    t = Fraction(p, q)
    expect = _outcome(_fraction_total, graph, t)
    total = _outcome(_required_total, graph, t)
    if isinstance(expect, Fraction):
        assert total == math.ceil(expect)
        assert _static_target(total) == math.ceil(Fraction(expect, 2))
        assert _dynamic_target(graph, total) == max(0, math.ceil(expect) - graph.m)
    else:
        assert total == expect  # the same error, word for word
    # the theorems battery's totals, at any average
    nt_ceil = math.ceil(n * t)
    assert _required_totals(n, t) == (nt_ceil, math.ceil(Fraction(nt_ceil, 2)))
    # pvc_rho_decide asks _decide for ceil(rho m) edges, or refuses rho
    with mock.patch.object(pvc, "_decide", lambda graph, target, cap: target):
        assert _outcome(pvc_rho_decide, graph, 1, t) == _outcome(_fraction_rho_target, graph, t)
