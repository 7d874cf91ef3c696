"""Partial vertex cover solvers.

``pvc_exact`` runs branch-and-bound and is exact for any graph it finishes
on; ``pvc_tree`` is a polynomial-time subtree knapsack for forests, whose
forward pass keeps every min-plus fold and whose traceback reads them back;
``pvc_degree_greedy`` solves bipartite graphs whose X side degree-dominates
the Y side; ``pvc_greedy_upper`` is the scalable heuristic upper bound.

``pick_solver`` is the one place that chooses among the exact solvers, and
``solve_pvc`` answers a query with its choice: branch-and-bound up to
``EXACT_MAX_N`` vertices (faster than the tree DP's numpy overhead there),
then the tree DP for forests, degree greedy for bipartite graphs with a
degree-dominating side, and branch-and-bound for everything else.

What does not depend on the target is computed once per graph object and
kept on it (``_solver_state``): the greedy's pick order with the coverage
after each pick, grown only as far as the largest target asked so far, and
the prefix sums of the degrees in decreasing order. A greedy answer is then
a binary search. A decision query is "yes" when the greedy needs at most k
picks, "no" when the k largest degrees sum below t (the degree-sum bound
that branch-and-bound applies at its root), and searches only in between.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from itertools import accumulate, chain
from typing import Optional

import numpy as np

from . import kernels
from .errors import InfeasibleTargetError
from .graph import (
    BipartitionView,
    Graph,
    Rational,
    _coerce_rational,
    bipartition,
    coverage,
    is_forest,
)

METHOD_EXACT = "exact"
METHOD_TREE = "tree_dp"
METHOD_DEGREE_GREEDY = "degree_greedy"
METHOD_HEURISTIC = "heuristic"

# Largest graph that pick_solver always sends to branch-and-bound.
EXACT_MAX_N = 30


@dataclass(frozen=True)
class PvcResult:
    """Outcome of a partial-cover query.

    ``witness`` always covers ``achieved_coverage`` >= the queried target;
    for the exact, tree, and degree-greedy methods the size is optimal.
    """

    size: int
    witness: frozenset[int]
    achieved_coverage: int
    method: str


@dataclass(frozen=True)
class PvcbInstance:
    """Decision instance: is there a set of at most k vertices covering >= t edges?"""

    graph: Graph
    k: int
    t: int

    def __post_init__(self):
        if not (0 <= self.k <= self.graph.n):
            raise ValueError(f"budget k={self.k} outside [0, {self.graph.n}]")
        if not (0 <= self.t <= self.graph.m):
            raise ValueError(f"target t={self.t} outside [0, {self.graph.m}]")


def _check_target(graph: Graph, t: int) -> None:
    if t < 0:
        raise InfeasibleTargetError(f"negative coverage target {t}")
    if t > graph.m:
        raise InfeasibleTargetError(f"target {t} exceeds edge count {graph.m}")


@dataclass(frozen=True, slots=True)
class _SolverState:
    """What the solvers derive from one graph without looking at a target.

    ``picks`` is the greedy's pick order so far and ``covered[i]`` the edges
    its first i picks cover (strictly increasing); ``resdeg`` is each
    vertex's residual degree after them, 0 once picked, and the greedy
    resumes from it. ``dprefix[k]`` sums the k largest degrees: no k
    vertices cover more edges than that.
    """

    picks: tuple[int, ...]
    covered: tuple[int, ...]
    resdeg: tuple[int, ...]
    dprefix: tuple[int, ...]


def _solver_state(graph: Graph, t: int) -> _SolverState:
    """The graph's solver state, its greedy run on until it covers >= t edges.

    No greedy pick depends on the target, so one run, extended only as far
    as the largest target asked so far, serves every target. A state is
    never changed once stored on the graph: extending it builds a new one.
    Threads that extend one graph's state at once each answer from their
    own state and the last store wins; every stored state is a prefix of
    the same pick order, so a lost store only costs work done again.
    """
    state = graph._pvc_state
    if state is None:
        picks, covered, resdeg = [], [0], list(graph.degrees)
        dprefix = tuple(accumulate(sorted(resdeg, reverse=True), initial=0))
    elif state.covered[-1] >= t:
        return state
    else:
        picks, covered, resdeg = list(state.picks), list(state.covered), list(state.resdeg)
        dprefix = state.dprefix
    achieved = covered[-1]
    while achieved < t:
        # t <= m guarantees some uncovered edge remains, so max(resdeg) > 0
        pick = resdeg.index(max(resdeg))
        picks.append(pick)
        achieved += resdeg[pick]
        covered.append(achieved)
        resdeg[pick] = 0
        # edge (pick, u) was uncovered iff u is unpicked, and then resdeg[u] >= 1
        for u in graph.adjacency[pick]:
            if resdeg[u]:
                resdeg[u] -= 1
    state = _SolverState(tuple(picks), tuple(covered), tuple(resdeg), dprefix)
    object.__setattr__(graph, "_pvc_state", state)
    return state


def pvc_greedy_upper(graph: Graph, t: int) -> PvcResult:
    """Repeatedly pick the vertex covering the most uncovered edges (ties: lowest id).

    Valid witness, no optimality claim.
    """
    _check_target(graph, t)
    state = _solver_state(graph, t)
    size = bisect_left(state.covered, t)
    return PvcResult(size, frozenset(state.picks[:size]), state.covered[size], METHOD_HEURISTIC)


def _csr_arrays(graph: Graph) -> tuple[np.ndarray, np.ndarray]:
    indptr = np.zeros(graph.n + 1, dtype=np.int64)
    np.cumsum(graph.degrees, out=indptr[1:])
    nbrs = np.fromiter(chain.from_iterable(map(sorted, graph.adjacency)), np.int64, 2 * graph.m)
    return indptr, nbrs


def _decide(graph: Graph, t: int, cap: int) -> bool:
    """True iff some set of at most cap vertices covers t <= m edges.

    The greedy answers yes when it needs at most cap picks; the degree-sum
    bound answers no when the cap largest degrees sum below t. Only the
    instances between the two reach the search, which stops at the first
    witness within the cap.
    """
    if t == 0:
        return True
    if cap <= 0:
        return False
    state = _solver_state(graph, t)
    if bisect_left(state.covered, t) <= cap:
        return True
    # here cap < the greedy's size <= n
    if state.dprefix[cap] < t:
        return False
    indptr, nbrs = _csr_arrays(graph)
    size, _ = kernels.bb_min_cover(graph.n, indptr, nbrs, t, cap, None, True)
    return size <= cap


def pvc_exact(graph: Graph, t: int) -> PvcResult:
    """Minimum-cardinality vertex set covering at least t edges.

    Branch-and-bound starts from the greedy's cover as its incumbent.
    """
    _check_target(graph, t)
    if t == 0:
        return PvcResult(0, frozenset(), 0, METHOD_EXACT)
    state = _solver_state(graph, t)
    incumbent = list(state.picks[:bisect_left(state.covered, t)])
    indptr, nbrs = _csr_arrays(graph)
    _, found = kernels.bb_min_cover(graph.n, indptr, nbrs, t, graph.n, incumbent, False)
    witness = frozenset(found)
    return PvcResult(len(witness), witness, coverage(graph, witness), METHOD_EXACT)


def pvc_decide(instance: PvcbInstance) -> bool:
    """True iff the instance graph has a t-partial cover of size at most k."""
    return _decide(instance.graph, instance.t, instance.k)


def pvc_rho_decide(graph: Graph, l: int, rho: Rational) -> bool:
    """True iff some set of at most l vertices covers at least rho * m edges.

    The target ceil(rho * m) is computed in exact rational arithmetic; a
    float rho raises TypeError.
    """
    rho = _coerce_rational(rho)
    if not (0 < rho < 1):
        raise ValueError(f"rho must lie strictly between 0 and 1, got {rho}")
    if l < 0:
        raise ValueError(f"budget must be nonnegative, got {l}")
    return _decide(graph, math.ceil(rho * graph.m), l)


def pvc_degree_greedy(view: BipartitionView, graph: Graph, t: int) -> PvcResult:
    """Prefix of X in nonincreasing degree order; optimal when min deg X >= max deg Y."""
    _check_target(graph, t)
    _validate_view(view, graph)
    if view.min_degree_x < view.max_degree_y:
        raise ValueError(
            f"degree hypothesis violated: min degree on X is {view.min_degree_x}"
            f" < max degree on Y {view.max_degree_y}"
        )
    deg = graph.degrees
    order = sorted(view.x, key=lambda v: (-deg[v], v))
    chosen: list[int] = []
    achieved = 0
    for v in order:
        if achieved >= t:
            break
        chosen.append(v)
        achieved += deg[v]
    # X touches every edge, so the prefix sums reach m >= t
    return PvcResult(len(chosen), frozenset(chosen), achieved, METHOD_DEGREE_GREEDY)


def dominant_view(graph: Graph) -> Optional[BipartitionView]:
    """The graph's bipartition, oriented so that X degree-dominates Y
    (min degree on X >= max degree on Y) whenever either orientation does.

    None when the graph is not bipartite.
    """
    view = bipartition(graph)
    if view is None or view.min_degree_x >= view.max_degree_y:
        return view
    return bipartition(graph, x_hint=view.y)


def pick_solver(graph: Graph, exact_max_n: int = EXACT_MAX_N) -> str:
    """The method that answers partial-cover queries on ``graph`` exactly.

    Branch-and-bound for graphs of at most ``exact_max_n`` vertices; above
    that the tree DP for forests, degree greedy for bipartite graphs with a
    degree-dominating side, and branch-and-bound otherwise.
    """
    if graph.n <= exact_max_n:
        return METHOD_EXACT
    if is_forest(graph):
        return METHOD_TREE
    view = dominant_view(graph)
    if view is not None and view.min_degree_x >= view.max_degree_y:
        return METHOD_DEGREE_GREEDY
    return METHOD_EXACT


def solve_pvc(graph: Graph, t: int) -> PvcResult:
    """Minimum-cardinality vertex set covering at least t edges, found by
    the solver ``pick_solver`` chooses."""
    method = pick_solver(graph)
    if method == METHOD_TREE:
        return pvc_tree(graph, t)
    if method == METHOD_DEGREE_GREEDY:
        return pvc_degree_greedy(dominant_view(graph), graph, t)
    return pvc_exact(graph, t)


def _validate_view(view: BipartitionView, graph: Graph) -> None:
    xs = set(view.x)
    ys = set(view.y)
    if xs & ys or xs | ys != set(range(graph.n)):
        raise ValueError("view sides do not partition the vertex set")
    for u, v in graph.edges:
        if (u in xs) == (v in xs):
            raise ValueError(f"edge ({u}, {v}) does not cross the view's sides")
    deg = graph.degrees
    if tuple(sorted((deg[v] for v in view.x), reverse=True)) != view.sorted_degrees_x:
        raise ValueError("view degree list is stale for this graph")


# ---------------------------------------------------------------------------
# forest solver: subtree knapsack over exact-coverage tables


def _forest_structure(graph: Graph):
    n = graph.n
    parent = [-1] * n
    seen = [False] * n
    roots: list[int] = []
    order: list[int] = []
    for start in range(n):
        if seen[start]:
            continue
        seen[start] = True
        roots.append(start)
        queue = [start]
        qi = 0
        while qi < len(queue):
            v = queue[qi]
            qi += 1
            order.append(v)
            for u in sorted(graph.adjacency[v]):
                if u == parent[v]:
                    continue
                if seen[u]:
                    raise ValueError("graph contains a cycle; the tree solver needs a forest")
                seen[u] = True
                parent[u] = v
                queue.append(u)
    children: list[list[int]] = [[] for _ in range(n)]
    for v in range(n):
        if parent[v] >= 0:
            children[parent[v]].append(v)
    return roots, children, order


def _child_tables(c0: np.ndarray, c1: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # Fold the child's two tables into the parent view, accounting for the
    # connecting edge: index shifts by one exactly when that edge is covered.
    # g0[x]: child unchosen with the edge open (c0[x]), or chosen covering it
    # (c1[x - 1]); g1[x]: a chosen parent always covers it. Entries are <= INF.
    g0 = np.concatenate((c0[:1], np.minimum(c0[1:], c1[:-1]), c1[-1:]))
    g1 = np.concatenate((_INF_CELL, np.minimum(c0, c1)))
    return g0, g1


# A vertex's tables before any child: no edge covered, at cost 0 unchosen and
# 1 chosen. Every leaf keeps them, so every leaf child links in through one
# shared pair. Read-only: min-plus and _child_tables never write their inputs.
_INF_CELL = np.array([kernels.INF], dtype=np.int64)
_BASE = (np.zeros(1, dtype=np.int64), np.ones(1, dtype=np.int64))
_LEAF_LINKS = _child_tables(*_BASE)
for _table in (_INF_CELL, *_BASE, *_LEAF_LINKS):
    _table.setflags(write=False)
del _table


def _link_tables(folds, children, u) -> tuple[np.ndarray, np.ndarray]:
    """Child u's whole-subtree tables in its parent's view."""
    if not children[u]:
        return _LEAF_LINKS
    return _child_tables(folds[0][u][-1], folds[1][u][-1])


def _split(prev: np.ndarray, g: np.ndarray, c: int, value: int, lo: int) -> int:
    """Smallest x >= lo with prev[c - x] + g[x] == value: the share of c
    that the last folded table g takes in a min-plus fold reaching value."""
    for x in range(lo, min(c, g.shape[0] - 1) + 1):
        if c - x < prev.shape[0] and int(prev[c - x]) + int(g[x]) == value:
            return x
    raise AssertionError("min-plus split not found")


def pvc_tree(graph: Graph, t: int) -> PvcResult:
    """Exact minimum partial cover for forests, polynomial in n and t.

    Each vertex carries two tables (vertex chosen / not chosen) indexed by
    the exact number of covered edges inside its subtree; children fold in
    by min-plus convolution. Components combine through one more knapsack.
    """
    _check_target(graph, t)
    roots, children, order = _forest_structure(graph)
    if t == 0:
        return PvcResult(0, frozenset(), 0, METHOD_TREE)

    # folds[s][v]: v's table in state s before any child and after folding in
    # each child in turn; the last entry covers v's whole subtree.
    folds: tuple[list, list] = ([None] * graph.n, [None] * graph.n)
    for v in reversed(order):
        seq0 = [_BASE[0]]
        seq1 = [_BASE[1]]
        for u in children[v]:
            g0, g1 = _link_tables(folds, children, u)
            seq0.append(kernels.minplus(seq0[-1], g0))
            seq1.append(kernels.minplus(seq1[-1], g1))
        folds[0][v] = seq0
        folds[1][v] = seq1

    exacts = [np.minimum(folds[0][r][-1], folds[1][r][-1]) for r in roots]
    comp_tables = [np.minimum.accumulate(exact[::-1])[::-1] for exact in exacts]
    prefixes: list[np.ndarray] = [np.zeros(1, dtype=np.int64)]
    for tab in comp_tables:
        prefixes.append(kernels.minplus(prefixes[-1], tab))
    size = int(prefixes[-1][t])
    assert size < kernels.INF

    # split the requirement across components, then walk each subtree
    comp_req = [0] * len(roots)
    req = t
    for j in range(len(roots), 0, -1):
        comp_req[j - 1] = _split(prefixes[j - 1], comp_tables[j - 1], req, int(prefixes[j][req]), 0)
        req -= comp_req[j - 1]

    selected: list[int] = []
    for r, c_req, tab, exact in zip(roots, comp_req, comp_tables, exacts):
        if c_req == 0:
            continue
        value = int(tab[c_req])
        # the fewest covered edges >= c_req at which the subtree reaches value
        c_exact = c_req + int(np.argmax(exact[c_req:] == value))
        s = 0 if int(folds[0][r][-1][c_exact]) == value else 1
        _traceback(r, s, c_exact, folds, children, selected)

    witness = frozenset(selected)
    assert len(witness) == size
    achieved = coverage(graph, witness)
    assert achieved >= t
    return PvcResult(size, witness, achieved, METHOD_TREE)


def _traceback(root, root_state, root_cov, folds, children, selected) -> None:
    stack = [(root, root_state, root_cov)]
    while stack:
        v, s, c = stack.pop()
        if s == 1:
            selected.append(v)
        seq = folds[s][v]
        kids = children[v]
        for j in range(len(kids), 0, -1):
            u = kids[j - 1]
            c0 = folds[0][u][-1]
            g = _link_tables(folds, children, u)[s]
            # g1[0] is INF (a chosen parent always covers the link edge), so
            # with s == 1 the split starts at x = 1 and x - 1 never wraps
            x = _split(seq[j - 1], g, c, int(seq[j][c]), s)
            # an unchosen child's subtree covers x - s edges (the link edge is
            # in x only when v is chosen); a chosen child covers the link, so x - 1
            if x - s < c0.shape[0] and int(c0[x - s]) == int(g[x]):
                stack.append((u, 0, x - s))
            else:
                stack.append((u, 1, x - 1))
            c -= x
        assert c == 0
