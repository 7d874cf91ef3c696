"""Partial vertex cover solvers.

``pvc_exact`` runs branch-and-bound and is exact for any graph it finishes
on; ``pvc_tree`` is a polynomial-time subtree knapsack for forests, which
keeps a vertex's two states (unchosen, chosen) as one (2, L) table and
folds its children in with one min-plus call for both per step, a run of
consecutive leaf children being one step. Vertices whose children have
the same sequence of shapes share one list of folds, built once per call.
Its traceback reads the folds and the children's tables back, and takes
the first leaves of a run in closed form;
``pvc_degree_greedy`` solves bipartite graphs with a side X that
degree-dominates the other side Y, taking both sides from the 2-colouring
of the graph's walk; ``pvc_greedy_upper`` is the scalable heuristic upper
bound.

``_route`` is the one place that chooses among the exact solvers:
branch-and-bound up to ``EXACT_MAX_N`` vertices (faster than the tree DP's
numpy overhead there), then, from one ``graph.walk``, the tree DP for
forests, degree greedy for bipartite graphs with a degree-dominating side,
and branch-and-bound for everything else. It returns the method, which
``pick_solver`` reports, with its solver bound to the walk it read.

What does not depend on the target is computed once per graph object and
kept on it (``_solver_state``): the greedy's pick order with the coverage
after each pick, grown only as far as the largest target asked so far, and
the prefix sums of the degrees in decreasing order. A greedy answer is then
a binary search. A decision query is "yes" when the greedy needs at most k
picks, "no" when the k largest degrees sum below t (the degree-sum bound
that branch-and-bound applies at its root), and otherwise compares k with
the size from ``solve_pvc``, so forests above ``EXACT_MAX_N`` get the tree DP
for decisions too.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from itertools import accumulate, chain, groupby
from typing import Callable, Optional

import numpy as np

from . import kernels
from .errors import InfeasibleTargetError
from .graph import Graph, Rational, Walk, _coerce_rational, coverage, walk

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
    bound answers no when the cap largest degrees sum below t. The instances
    between the two go to the solver ``solve_pvc`` picks.
    """
    state = _solver_state(graph, t)
    if bisect_left(state.covered, t) <= cap:
        return True
    # here cap < the greedy's size <= n
    if state.dprefix[cap] < t:
        return False
    return solve_pvc(graph, t).size <= cap


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
    witness = frozenset(kernels.bb_min_cover(graph.n, indptr, nbrs, t, incumbent))
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


def _orient(deg: tuple[int, ...], side: list[int]) -> tuple[int, int, int]:
    """The side of a 2-colouring taken as X, with min deg X and max deg Y.

    X is the side that degree-dominates (min deg X >= max deg Y), and a
    vertex of degree 0 is on Y whichever side it is coloured. When both
    sides dominate (every vertex of degree above 0 has one degree), X is
    side 0, or side 1 if some vertex is isolated; that is the X, and so
    the witnesses, of earlier releases, which counted isolated vertices on
    side 0. When neither side dominates, the numbers are side 1's.
    """
    bounds = [
        (min((d for d, s in zip(deg, side) if s == x and d), default=0),
         max((d for d, s in zip(deg, side) if s != x), default=0))
        for x in (0, 1)
    ]
    dominates = [low >= high for low, high in bounds]
    x_side = 0 if dominates[0] and (0 not in deg or not dominates[1]) else 1
    return (x_side, *bounds[x_side])


def pvc_degree_greedy(graph: Graph, t: int, *, _walk: Optional[Walk] = None) -> PvcResult:
    """Prefix of X in nonincreasing degree order (ties: lowest id); optimal
    when X degree-dominates Y (min deg X >= max deg Y).

    X and Y come from the 2-colouring of the graph's ``walk`` (``_walk``
    when the router passes it), oriented by ``_orient``. A graph that is not
    bipartite, or has no dominating side, raises ValueError.
    """
    side = (walk(graph) if _walk is None else _walk).side
    if side is None:
        raise ValueError("degreeGreedy requires a bipartite graph")
    _check_target(graph, t)
    deg = graph.degrees
    x_side, low, high = _orient(deg, side)
    if low < high:
        raise ValueError(f"degree hypothesis violated: min degree on X is {low} < max degree on Y {high}")
    order = sorted((v for v, s in enumerate(side) if s == x_side and deg[v]), key=lambda v: (-deg[v], v))
    chosen: list[int] = []
    achieved = 0
    for v in order:
        if achieved >= t:
            break
        chosen.append(v)
        achieved += deg[v]
    # X touches every edge, so the prefix sums reach m >= t
    return PvcResult(len(chosen), frozenset(chosen), achieved, METHOD_DEGREE_GREEDY)


def _route(graph: Graph, exact_max_n: int = EXACT_MAX_N) -> tuple[str, Callable[[int], PvcResult]]:
    """The method that answers partial-cover queries on ``graph`` exactly,
    and its solver as a function of the target, bound to the walk it read.

    Branch-and-bound for graphs of at most ``exact_max_n`` vertices; above
    that the tree DP for forests, degree greedy for bipartite graphs with a
    degree-dominating side, and branch-and-bound otherwise.
    """
    if graph.n > exact_max_n:
        w = walk(graph)
        if w.forest:
            return METHOD_TREE, lambda t: pvc_tree(graph, t, _walk=w)
        if w.side is not None:
            _, low, high = _orient(graph.degrees, w.side)
            if low >= high:
                return METHOD_DEGREE_GREEDY, lambda t: pvc_degree_greedy(graph, t, _walk=w)
    return METHOD_EXACT, lambda t: pvc_exact(graph, t)


def pick_solver(graph: Graph, exact_max_n: int = EXACT_MAX_N) -> str:
    """The method that answers partial-cover queries on ``graph`` exactly
    (see ``_route``)."""
    return _route(graph, exact_max_n)[0]


def solve_pvc(graph: Graph, t: int) -> PvcResult:
    """Minimum-cardinality vertex set covering at least t edges, found by
    the solver ``pick_solver`` chooses."""
    return _route(graph)[1](t)


# ---------------------------------------------------------------------------
# forest solver: subtree knapsack over exact-coverage tables


def _child_tables(c: np.ndarray) -> np.ndarray:
    # Fold the child's (2, L) tables into the parent view, accounting for the
    # connecting edge: index shifts by one exactly when that edge is covered.
    # Row 0 (parent unchosen), g0[x]: child unchosen with the edge open
    # (c[0][x]), or chosen covering it (c[1][x - 1]); row 1, g1[x]: a chosen
    # parent always covers it, so g1[0] is INF. Entries are <= INF.
    length = c.shape[1]
    g = np.empty((2, length + 1), dtype=np.int64)
    g[0, 0] = c[0, 0]
    np.minimum(c[0, 1:], c[1, :-1], out=g[0, 1:length])
    g[0, length] = c[1, length - 1]
    g[1, 0] = kernels.INF
    np.minimum(c[0], c[1], out=g[1, 1:])
    return g


# A vertex's tables before any child: no edge covered, at cost 0 unchosen and
# 1 chosen. Every leaf keeps them. Read-only: min-plus never writes its inputs.
_BASE = np.array([[0], [1]], dtype=np.int64)
_BASE.setflags(write=False)


def _run_link(r: int) -> np.ndarray:
    # The link of a run of r leaf children, folded in at once. With the
    # parent unchosen, x of their edges are covered by choosing x leaves
    # (row 0 is 0, 1, ..., r); a chosen parent covers all r with no leaf
    # chosen (row 1 is INF but for a 0 at r). Min-plus with the INF clamp is
    # associative, so one fold through it gives the table that folding the
    # r leaves in one by one gives.
    link = np.full((2, r + 1), kernels.INF, dtype=np.int64)
    link[0] = np.arange(r + 1)
    link[1, r] = 0
    return link


def _split(prev: np.ndarray, g, c: int, value: int) -> int:
    """Smallest x with prev[c - x] + g[x] == value: the share of c that
    the last folded table g takes in a min-plus fold reaching value."""
    for x in range(max(0, c - len(prev) + 1), min(c, len(g) - 1) + 1):
        if int(prev[c - x]) + int(g[x]) == value:
            return x
    raise AssertionError("min-plus split not found")


def pvc_tree(graph: Graph, t: int, *, _walk: Optional[Walk] = None) -> PvcResult:
    """Exact minimum partial cover for forests, polynomial in n and t.

    Each vertex carries one (2, L) table: row 0 with the vertex unchosen,
    row 1 with it chosen, indexed by the exact number of covered edges
    inside its subtree. Children fold in by min-plus convolution in their
    order, one call for both rows per step: a run of consecutive leaf
    children is one step, through one ``_run_link``, and any other child is
    one. Vertices whose children have the same sequence of shapes have the
    same tables, so each such shape is folded once per call and shared.
    Components combine through one more knapsack. Each component is rooted
    at its lowest id and each vertex's children are in increasing id order,
    as the graph's ``walk`` (``_walk`` when the router passes it) gives them.
    """
    _check_target(graph, t)
    roots, children, order, forest, _ = walk(graph) if _walk is None else _walk
    if not forest:
        raise ValueError("graph contains a cycle; the tree solver needs a forest")
    if t == 0:
        return PvcResult(0, frozenset(), 0, METHOD_TREE)

    # shape[v] indexes folds, keyed in shape_ids by the shapes of v's
    # children in order (0 is a leaf). folds[k]: the (2, L) table of shape k
    # before any child and after each step; the last covers the subtree.
    shape = [0] * graph.n
    folds = [(_BASE,)]
    shape_ids: dict[tuple, int] = {(): 0}
    run_links: dict[int, np.ndarray] = {}
    for v in reversed(order):
        key = tuple([shape[u] for u in children[v]])
        k = shape_ids.get(key)
        if k is None:
            seq = [_BASE]
            for inner, steps in groupby(key, bool):
                if inner:
                    for u_shape in steps:
                        seq.append(kernels.minplus(seq[-1], _child_tables(folds[u_shape][-1])))
                else:
                    r = sum(1 for _ in steps)
                    link = run_links.get(r)
                    if link is None:
                        link = run_links[r] = _run_link(r)
                    seq.append(kernels.minplus(seq[-1], link))
            k = shape_ids[key] = len(folds)
            folds.append(tuple(seq))
        shape[v] = k

    exacts = [folds[shape[r]][-1].min(axis=0) for r in roots]
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
        comp_req[j - 1] = _split(prefixes[j - 1], comp_tables[j - 1], req, int(prefixes[j][req]))
        req -= comp_req[j - 1]

    selected: list[int] = []
    for r, c_req, tab, exact in zip(roots, comp_req, comp_tables, exacts):
        if c_req == 0:
            continue
        value = int(tab[c_req])
        # the fewest covered edges >= c_req at which the subtree reaches value
        c_exact = c_req + int(np.argmax(exact[c_req:] == value))
        s = 0 if int(folds[shape[r]][-1][0][c_exact]) == value else 1
        _traceback(r, s, c_exact, shape, folds, children, selected)

    witness = frozenset(selected)
    assert len(witness) == size
    achieved = coverage(graph, witness)
    assert achieved >= t
    return PvcResult(size, witness, achieved, METHOD_TREE)


def _link_split(prev: np.ndarray, child: np.ndarray, c: int, value: int, s: int) -> tuple[int, int]:
    """The share x of c that a child's link takes in a fold reaching value
    with its parent in state s, and the child's state there.

    The smallest such x, as ``_split`` would find it over the link row g[s]
    of ``_child_tables``, but with its cells g[s][x] = min(c0[x - s],
    c1[x - 1]) read off the child's own (2, L) table, so the traceback
    never rebuilds a link: an unchosen child covers x - s edges inside (the
    link edge counts in x only when the parent is chosen), a chosen one
    x - 1. The unchosen child wins a tie, as in the link's minimum.
    """
    c0, c1 = child
    length = c0.shape[0]
    # g1[0] is INF (a chosen parent always covers the link edge), so with
    # s == 1 the scan starts at x = 1
    for x in range(max(s, c - prev.shape[0] + 1), min(c, length) + 1):
        rest = value - int(prev[c - x])
        if x - s < length and int(c0[x - s]) == rest:
            return x, 0
        if x and int(c1[x - 1]) == rest:
            return x, 1
    raise AssertionError("min-plus split not found")


def _traceback(root, root_state, root_cov, shape, folds, children, selected) -> None:
    stack = [(root, root_state, root_cov)]
    while stack:
        v, s, c = stack.pop()
        if s == 1:
            selected.append(v)
        seq = folds[shape[v]]
        kids = children[v]
        j = len(kids)
        for i in range(len(seq) - 1, 0, -1):
            prev, value = seq[i - 1][s], int(seq[i][s][c])
            u = kids[j - 1]
            if shape[u]:
                x, su = _link_split(prev, folds[shape[u]][-1], c, value, s)
                stack.append((u, su, x - s if su == 0 else x - 1))
                j -= 1
            else:
                # a run of leaves kids[start:j]: a chosen parent covers their
                # edges with none chosen; an unchosen one takes the first x
                # leaves, x the smallest share of c that reaches value (what
                # folding and tracing them one by one picks)
                start = j - 1
                while start and not shape[kids[start - 1]]:
                    start -= 1
                if s:
                    x = j - start
                else:
                    x = _split(prev, range(j - start + 1), c, value)
                    selected.extend(kids[start:start + x])
                j = start
            c -= x
        assert c == 0
