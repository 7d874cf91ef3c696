"""Partial vertex cover solvers.

``pvc_exact`` runs branch-and-bound and is exact for any graph it finishes
on; ``pvc_tree`` is a polynomial-time subtree knapsack for forests, which
keeps a vertex's two states (unchosen, chosen) as one table and folds its
children in one step at a time, a run of consecutive leaf children being
one step. The first step folds into the base table, so it is built as its
link shifted (``_first_step``), and each later one is one
``kernels.minplus`` call for both states. A table is a pair of Python
lists while min-plus folds it by its plain-Python loop (``LIST_CELLS``)
and a (2, L) int64 array after, so the many short folds of a shallow tree
pay no numpy call overhead. Vertices whose children have the same
sequence of shapes share one list of folds, built once per call, and a
list-sized child link is built once per call and shape. Every table
keeps only its first t + Δ cells, Δ the maximum degree, which hold all
the traceback reads. A forest whose cut tables would exceed
``TREE_DP_MAX_CELLS`` cells is refused before any is built. The
components with an edge combine through one more knapsack, from the
first one's table; an isolated vertex takes no part. The traceback reads
the folds and the children's tables back, and takes the first leaves of a
run in closed form;
``pvc_degree_greedy`` solves bipartite graphs with a side X that
degree-dominates the other side Y, oriented by the router's rule whether
the router or a caller asks; ``pvc_greedy_upper`` is the scalable
heuristic upper bound.

``_route`` is the one place that chooses among the exact solvers:
branch-and-bound up to ``EXACT_MAX_N`` vertices (faster than the tree DP's
numpy overhead there), then, from one ``graph.walk``, the tree DP for
forests, degree greedy for bipartite graphs with a degree-dominating side
(each component oriented on its own when the whole colouring has none),
and branch-and-bound for everything else. It returns the method, which
``pick_solver`` reports, with its solver bound to what it read.

What does not depend on the target is computed once per graph object and
kept on it (``_solver_state``): the greedy's pick order with the coverage
after each pick, grown only as far as the largest target asked so far, and
the prefix sums of the degrees in decreasing order. A greedy answer is then
a binary search. ``solve_pvc`` also keeps, on the graph object, each answer
it gets from branch-and-bound, so a target asked again (by ``smon`` and
``sdyn`` at averages with one target, or by decides with several caps) is
solved once. Every decision form, the monopoly ones too, ends in
``_decide``: "yes" when the greedy needs at most k picks, "no" when the k
largest degrees sum below t (the degree-sum bound that branch-and-bound
applies at its root), and otherwise k compared with the size from
``solve_pvc``, so forests above ``EXACT_MAX_N`` get the tree DP for them too.
"""

from __future__ import annotations

import operator
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
        k, t = _check_instance(self.graph, self.k, self.t)
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "t", t)


def _check_instance(graph: Graph, k: int, t: int) -> tuple[int, int]:
    """k and t as plain ints, checked to lie in [0, n] and [0, m]. They are
    coerced by ``operator.index``, so a float raises TypeError."""
    k, t = operator.index(k), operator.index(t)
    if not (0 <= k <= graph.n):
        raise ValueError(f"budget k={k} outside [0, {graph.n}]")
    if not (0 <= t <= graph.m):
        raise ValueError(f"target t={t} outside [0, {graph.m}]")
    return k, t


def _check_target(graph: Graph, t: int) -> int:
    """t as a plain int (``operator.index``: a float raises TypeError),
    checked to lie in [0, m]."""
    t = operator.index(t)
    if t < 0:
        raise InfeasibleTargetError(f"negative coverage target {t}")
    if t > graph.m:
        raise InfeasibleTargetError(f"target {t} exceeds edge count {graph.m}")
    return t


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
    t = _check_target(graph, t)
    state = _solver_state(graph, t)
    size = bisect_left(state.covered, t)
    return PvcResult(size, frozenset(state.picks[:size]), state.covered[size], METHOD_HEURISTIC)


def _csr_arrays(graph: Graph) -> tuple[np.ndarray, np.ndarray]:
    indptr = np.zeros(graph.n + 1, dtype=np.int64)
    np.cumsum(graph.degrees, out=indptr[1:])
    nbrs = np.fromiter(chain.from_iterable(graph.adjacency), np.int64, 2 * graph.m)
    return indptr, nbrs


def _decide(graph: Graph, t: int, cap: int) -> bool:
    """True iff some set of at most cap vertices covers t <= m edges.

    The greedy answers yes when it needs at most cap picks; the degree-sum
    bound answers no when the cap largest degrees sum below t. The instances
    between the two go to the solver ``solve_pvc`` picks. Nothing here is
    checked: the caller keeps 0 <= t <= m, since the greedy never reaches a
    larger target, and cap >= 0, since a negative cap indexes ``dprefix``
    from its end.
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
    t = _check_target(graph, t)
    if t == 0:
        return PvcResult(0, frozenset(), 0, METHOD_EXACT)
    state = _solver_state(graph, t)
    incumbent = list(state.picks[:bisect_left(state.covered, t)])
    indptr, nbrs = _csr_arrays(graph)
    witness, _ = kernels.bb_min_cover(graph.n, indptr, nbrs, t, incumbent)
    witness = frozenset(witness)
    return PvcResult(len(witness), witness, coverage(graph, witness), METHOD_EXACT)


def pvc_decide(instance: PvcbInstance) -> bool:
    """True iff the instance graph has a t-partial cover of size at most k."""
    return _decide(instance.graph, instance.t, instance.k)


def pvc_rho_decide(graph: Graph, l: int, rho: Rational) -> bool:
    """True iff some set of at most l vertices covers at least rho * m edges.

    The target ceil(rho * m) is computed in integers from rho = a/b in
    lowest terms; a float rho raises TypeError.
    """
    rho = _coerce_rational(rho)
    a, b = rho.numerator, rho.denominator
    if not (0 < a < b):
        raise ValueError(f"rho must lie strictly between 0 and 1, got {rho}")
    l = operator.index(l)
    if l < 0:
        raise ValueError(f"budget must be nonnegative, got {l}")
    return _decide(graph, -(-a * graph.m // b), l)


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


def _oriented(deg: tuple[int, ...], w: Walk) -> Optional[tuple[list[int], int]]:
    """A 2-colouring of the walk's bipartite graph with a side X that
    degree-dominates, and X's side; None when there is none.

    The walk's colouring is oriented as a whole by ``_orient`` first. When
    no side dominates there, each component's colouring is flipped, where
    needed, so that its own dominating side is side 0, and the flipped
    colouring is oriented again. A component is a run of the walk's visit
    order that starts at its root.
    """
    x_side, low, high = _orient(deg, w.side)
    if low >= high:
        return w.side, x_side
    flipped = w.side[:]
    is_root = set(w.roots)
    starts = [i for i, v in enumerate(w.order) if v in is_root] + [len(w.order)]
    for lo, hi in zip(starts, starts[1:]):
        comp = w.order[lo:hi]
        x_side, low, high = _orient([deg[v] for v in comp], [flipped[v] for v in comp])
        if low < high:
            return None
        if x_side:
            for v in comp:
                flipped[v] ^= 1
    x_side, low, high = _orient(deg, flipped)
    return (flipped, x_side) if low >= high else None


def pvc_degree_greedy(graph: Graph, t: int, *, _sides: Optional[tuple[list[int], int]] = None) -> PvcResult:
    """Prefix of X in nonincreasing degree order (ties: lowest id); optimal
    when X degree-dominates Y (min deg X >= max deg Y).

    X and Y come from the 2-colouring of the graph's ``walk``, oriented by
    the router's rule ``_oriented`` (``_sides`` when the router passes what
    it found). A graph that is not bipartite, or has no dominating side
    there, raises ValueError, worded from the whole colouring's ``_orient``.
    """
    deg = graph.degrees
    if _sides is None:
        w = walk(graph)
        if w.side is None:
            raise ValueError("degreeGreedy requires a bipartite graph")
        t = _check_target(graph, t)
        _sides = _oriented(deg, w)
        if _sides is None:
            _, low, high = _orient(deg, w.side)
            raise ValueError(f"degree hypothesis violated: min degree on X is {low} < max degree on Y {high}")
    else:
        t = _check_target(graph, t)
    side, x_side = _sides
    order = sorted((v for v, s in enumerate(side) if s == x_side and deg[v]), key=lambda v: (-deg[v], v))
    # X touches every edge, so the prefix sums reach m >= t
    covered = list(accumulate((deg[v] for v in order), initial=0))
    size = bisect_left(covered, t)
    return PvcResult(size, frozenset(order[:size]), covered[size], METHOD_DEGREE_GREEDY)


def _route(graph: Graph, exact_max_n: int = EXACT_MAX_N) -> tuple[str, Callable[[int], PvcResult]]:
    """The method that answers partial-cover queries on ``graph`` exactly,
    and its solver as a function of the target, bound to the walk it read
    (or, for degree greedy, the colouring it oriented).

    Branch-and-bound for graphs of at most ``exact_max_n`` vertices; above
    that the tree DP for forests, degree greedy for bipartite graphs with a
    degree-dominating side (``_oriented``), and branch-and-bound otherwise.
    """
    if graph.n > exact_max_n:
        w = walk(graph)
        if w.forest:
            return METHOD_TREE, lambda t: pvc_tree(graph, t, _walk=w)
        sides = None if w.side is None else _oriented(graph.degrees, w)
        if sides is not None:
            return METHOD_DEGREE_GREEDY, lambda t: pvc_degree_greedy(graph, t, _sides=sides)
    return METHOD_EXACT, lambda t: pvc_exact(graph, t)


def pick_solver(graph: Graph) -> str:
    """The method that answers partial-cover queries on ``graph`` exactly
    (see ``_route``)."""
    return _route(graph)[0]


def solve_pvc(graph: Graph, t: int) -> PvcResult:
    """Minimum-cardinality vertex set covering at least t edges, found by
    the solver ``pick_solver`` chooses.

    The answers of the branch-and-bound route, the costly ones, are kept on
    the graph object by target (``Graph._pvc_answers``) and returned again
    without routing. Tree DP and degree-greedy answers are not kept: they
    are polynomial, and keeping every target of a 2,000-vertex forest would
    hold a witness per target, tens of MB. ``pvc_exact`` called directly
    keeps nothing. Each store is one dict insert of the answer the target
    always gets, so threads that miss at once only solve it twice.
    """
    t = operator.index(t)  # a cached 3 must not answer 3.0
    answers = graph._pvc_answers
    if answers is not None:
        result = answers.get(t)
        if result is not None:
            return result
    method, solve = _route(graph)
    result = solve(t)
    if method == METHOD_EXACT:
        if answers is None:
            answers = {}
            object.__setattr__(graph, "_pvc_answers", answers)
        answers[t] = result
    return result


# ---------------------------------------------------------------------------
# forest solver: subtree knapsack over exact-coverage tables


def _child_tables(c):
    # Fold the child's (2, L) tables into the parent view, accounting for the
    # connecting edge: index shifts by one exactly when that edge is covered.
    # Row 0 (parent unchosen), g0[x]: child unchosen with the edge open
    # (c[0][x]), or chosen covering it (c[1][x - 1]); row 1, g1[x]: a chosen
    # parent always covers it, so g1[0] is INF. Entries are <= INF. A pair of
    # lists gives a pair of lists, an array an array.
    if type(c) is tuple:
        c0, c1 = c
        return ([c0[0], *[p if p < q else q for p, q in zip(c0[1:], c1)], c1[-1]],
                [kernels.INF, *[p if p < q else q for p, q in zip(c0, c1)]])
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
_BASE = ([0], [1])


def _first_step(link, cut: int):
    """The tables after a shape's first step, ``kernels.minplus(_BASE, link,
    cut)`` without a fold: the link cut to ``cut`` cells with row 1 raised
    by one (INF stays INF). A pair of lists exactly when min-plus would
    give one (a list link of at most ``LIST_CELLS`` cells), a new int64
    array otherwise; the link is never written."""
    inf = kernels.INF
    if type(link) is tuple:
        c0, c1 = link
        if len(c0) <= kernels.LIST_CELLS:
            return c0[:cut], [y + 1 if y < inf else inf for y in c1[:cut]]
        out = np.array((c0[:cut], c1[:cut]), dtype=np.int64)
    else:
        out = link[:, :cut].copy()
    chosen = out[1]
    chosen += 1
    np.minimum(chosen, inf, out=chosen)
    return out


def _run_link(r: int):
    # The link of a run of r leaf children, folded in at once. With the
    # parent unchosen, x of their edges are covered by choosing x leaves
    # (row 0 is 0, 1, ..., r); a chosen parent covers all r with no leaf
    # chosen (row 1 is INF but for a 0 at r). Min-plus with the INF clamp is
    # associative, so one fold through it gives the table that folding the
    # r leaves in one by one gives. A link short enough for the list loop
    # of min-plus is a pair of lists, a longer one an array.
    link = ([*range(r + 1)], [kernels.INF] * r + [0])
    return link if r < kernels.LIST_CELLS else np.array(link, dtype=np.int64)


# Most table cells one ``pvc_tree`` call may build (~0.8 GB as int64): at
# t = m a path of 8,000 vertices needs ~64 million, one of 20,000 ~400 million.
TREE_DP_MAX_CELLS = 100_000_000


def _shape_keys(children, order, shape: list[int]):
    """Yield the key of each new subtree shape: the shapes of its vertex's
    children, in order.

    Shape 0 is a leaf, and the others are numbered 1, 2, ... in the order
    their keys are yielded; ``shape[v]`` is set for every vertex. ``order``
    lists every parent before its children, so read backwards each child's
    shape is known first. A consumer may fold each shape as it is yielded.
    """
    shape_ids: dict[tuple[int, ...], int] = {(): 0}
    for v in reversed(order):
        if not children[v]:
            continue  # a leaf keeps shape 0
        key = tuple([shape[u] for u in children[v]])
        k = shape_ids.get(key)
        if k is None:
            k = shape_ids[key] = len(shape_ids)
            yield key
        shape[v] = k


def _dp_cells(keys, size: int) -> int:
    """Table cells the tree DP builds for a leaf and the shapes ``keys``:
    two rows per table, one table before any child and one after each
    step, a run of leaf children being one step, each table one cell
    longer than the edges it covers, or ``size`` cells where it is cut.

    On an n-vertex forest this is at most 2n(n + 1). A table's length is
    the number of vertices in its vertex and the children folded so far.
    So a vertex counts once in each of its own tables (fewer than 2n tables
    in all), and at each ancestor once for each child folded at or after
    its own branch (fewer than n children in all).
    """
    edges = [0]  # per shape, the edges its subtree holds
    cells = 2  # the leaf's one table
    for key in keys:
        length = total = 1
        for inner, steps in groupby(key, bool):
            if inner:
                for u_shape in steps:
                    length += edges[u_shape] + 1
                    total += min(length, size)
            else:
                length += sum(1 for _ in steps)
                total += min(length, size)
        edges.append(length - 1)
        cells += 2 * total
    return cells


def _split(prev, g, c: int, value: int) -> int:
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
    order, one step at a time: a run of consecutive leaf children is one
    step, through one ``_run_link``, and any other child is one. The first
    step folds the link into the base table (``_BASE``: no edge covered, at
    cost 0 unchosen and 1 chosen), which is the link with row 1 raised by
    one, so ``_first_step`` builds it without a fold; each later step is
    one ``kernels.minplus`` call for both rows. Vertices whose children
    have the same sequence of shapes have the same tables, so each such
    shape is folded once per call and shared.
    A table is a pair of Python lists while ``kernels.minplus`` folds it by
    its plain-Python loop, and a (2, L) int64 array once a fold is too long
    for that; a child shape's link is built once per call while it is a
    pair of lists, and per fold once it is an array, so that no long link
    is kept. The components with an edge combine through one more knapsack,
    from the first one's table. Every fold and the knapsack keep only their
    first t + Δ cells, Δ the maximum degree (see ``cut``). Each component
    is rooted at its lowest id and each vertex's children are in increasing
    id order, as the graph's ``walk`` (``_walk`` when the router passes it)
    gives them.
    A forest whose cut tables would hold more than ``TREE_DP_MAX_CELLS``
    cells raises ValueError before any is built.
    """
    t = _check_target(graph, t)
    roots, children, order, forest, _ = walk(graph) if _walk is None else _walk
    if not forest:
        raise ValueError("graph contains a cycle; the tree solver needs a forest")
    if t == 0:
        return PvcResult(0, frozenset(), 0, METHOD_TREE)
    # Every fold and the component knapsack keep only their first
    # t + max degree cells. An optimal set that covers the fewest edges of
    # all optimal sets covers fewer than t + max degree (drop any one of its
    # vertices and at least t edges stay covered), so the traceback reads no
    # cell beyond; and a min-plus cell reads only operand cells at or below
    # its index. Links need no cut: min-plus reads none of their cells past
    # it either, such as a cut table's link's last cell, which lacks c0's.
    cut = t + max(graph.degrees)

    # the DP builds at most 2n(n + 1) cells (``_dp_cells``), so only larger
    # forests are counted
    shape = [0] * graph.n
    if 2 * graph.n * (graph.n + 1) > TREE_DP_MAX_CELLS:
        cells = _dp_cells(_shape_keys(children, order, shape), cut)
        if cells > TREE_DP_MAX_CELLS:
            raise ValueError(f"tree DP needs {cells:,} table cells, above the limit of {TREE_DP_MAX_CELLS:,}")

    # folds[k]: the tables of shape k before any child and after each step,
    # the last covering the subtree. Leaf-run links, and child links while
    # they are pairs of lists, are kept for this call; an array child link
    # is built for its one fold and not kept.
    links: dict[int, object] = {}
    run_links: dict[int, object] = {}
    folds = [(_BASE,)]

    def child_link(u_shape):
        link = links.get(u_shape)
        if link is None:
            link = _child_tables(folds[u_shape][-1])
            if type(link) is tuple:
                links[u_shape] = link
        return link

    def step_links(key):
        # the link of each step of shape key, in order
        for inner, steps in groupby(key, bool):
            if inner:
                for u_shape in steps:
                    yield child_link(u_shape)
            else:
                r = sum(1 for _ in steps)
                link = run_links.get(r)
                if link is None:
                    link = run_links[r] = _run_link(r)
                yield link

    # each shape is folded as soon as its key is found: finding every key
    # first left the same tracemalloc peak but a heap with more freed holes,
    # and raised the peak RSS on a 4,000-vertex path from 184 to 280 MB
    for key in _shape_keys(children, order, shape):
        links_in = step_links(key)
        seq = [_BASE, _first_step(next(links_in), cut)]
        for link in links_in:
            seq.append(kernels.minplus(seq[-1], link, cut))
        folds.append(tuple(seq))

    # an isolated vertex's table is [0], the min-plus identity, and takes no
    # share of t, so only components with an edge combine (t >= 1 leaves one)
    roots = [r for r in roots if shape[r]]
    exacts = [np.asarray(folds[shape[r]][-1]).min(axis=0) for r in roots]
    comp_tables = [np.minimum.accumulate(exact[::-1])[::-1] for exact in exacts]
    prefixes = comp_tables[:1]
    for tab in comp_tables[1:]:
        prefixes.append(kernels.minplus(prefixes[-1], tab, cut))
    size = int(prefixes[-1][t])
    assert size < kernels.INF

    # split t from the last component back, the first taking what is left
    selected: list[int] = []
    req = t
    for j in reversed(range(len(roots))):
        tab, exact, r = comp_tables[j], exacts[j], roots[j]
        c_req = _split(prefixes[j - 1], tab, req, int(prefixes[j][req])) if j else req
        req -= c_req
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


def _link_split(prev, child, c: int, value: int, s: int) -> tuple[int, int]:
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
    length = len(c0)
    # g1[0] is INF (a chosen parent always covers the link edge), so with
    # s == 1 the scan starts at x = 1
    for x in range(max(s, c - len(prev) + 1), min(c, length) + 1):
        rest = value - int(prev[c - x])
        if x - s < length and int(c0[x - s]) == rest:
            return x, 0
        if x and int(c1[x - 1]) == rest:
            return x, 1
    raise AssertionError("min-plus split not found")


def _traceback(root, root_state, root_cov, shape, folds, children, selected) -> None:
    # An unchosen vertex whose folded children cover no edge picks no vertex
    # below: every split of 0 is 0, so its remaining children are skipped.
    stack = [(root, root_state, root_cov)]
    while stack:
        v, s, c = stack.pop()
        if s == 1:
            selected.append(v)
        seq = folds[shape[v]]
        kids = children[v]
        j = len(kids)
        for i in range(len(seq) - 1, 0, -1):
            if not (c or s):
                break
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
