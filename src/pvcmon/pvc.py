"""Partial vertex cover solvers.

``pvc_exact`` runs branch-and-bound and is exact for any graph it finishes
on; ``pvc_tree`` is a polynomial-time subtree knapsack for forests;
``pvc_degree_greedy`` solves bipartite graphs whose X side degree-dominates
the Y side; ``pvc_greedy_upper`` is the scalable heuristic upper bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

import numpy as np

from . import kernels
from .errors import InfeasibleTargetError
from .graph import BipartitionView, Graph, coverage

METHOD_EXACT = "exact"
METHOD_TREE = "tree_dp"
METHOD_DEGREE_GREEDY = "degree_greedy"
METHOD_HEURISTIC = "heuristic"


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


def _incidence(graph: Graph) -> list[list[tuple[int, int]]]:
    inc: list[list[tuple[int, int]]] = [[] for _ in range(graph.n)]
    for eid, (u, v) in enumerate(graph.edges):
        inc[u].append((eid, v))
        inc[v].append((eid, u))
    return inc


def pvc_greedy_upper(graph: Graph, t: int) -> PvcResult:
    """Repeatedly pick the vertex covering the most uncovered edges (ties: lowest id).

    Valid witness, no optimality claim.
    """
    _check_target(graph, t)
    inc = _incidence(graph)
    resdeg = [len(lst) for lst in inc]
    covered = [False] * graph.m
    chosen: list[int] = []
    achieved = 0
    while achieved < t:
        pick = -1
        bestdeg = 0
        for v in range(graph.n):
            if resdeg[v] > bestdeg:
                bestdeg = resdeg[v]
                pick = v
        # t <= m guarantees some uncovered edge remains, so pick >= 0
        chosen.append(pick)
        for eid, u in inc[pick]:
            if not covered[eid]:
                covered[eid] = True
                achieved += 1
                resdeg[u] -= 1
                resdeg[pick] -= 1
    return PvcResult(len(chosen), frozenset(chosen), achieved, METHOD_HEURISTIC)


def _csr_arrays(graph: Graph) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    n, m = graph.n, graph.m
    indptr = np.zeros(n + 1, dtype=np.int64)
    for u, v in graph.edges:
        indptr[u + 1] += 1
        indptr[v + 1] += 1
    np.cumsum(indptr, out=indptr)
    nbrs = np.zeros(2 * m, dtype=np.int64)
    eids = np.zeros(2 * m, dtype=np.int64)
    cursor = indptr[:-1].copy()
    for eid, (u, v) in enumerate(graph.edges):
        nbrs[cursor[u]] = v
        eids[cursor[u]] = eid
        cursor[u] += 1
        nbrs[cursor[v]] = u
        eids[cursor[v]] = eid
        cursor[v] += 1
    return indptr, nbrs, eids


def _search_min_cover(
    graph: Graph, t: int, cap: int, first_found: bool
) -> Optional[tuple[int, frozenset[int]]]:
    """Smallest cover of >= t edges with size <= cap, or None if none exists.

    With ``first_found`` the search stops at the first witness within the
    cap (sufficient for decision queries); otherwise it proves optimality.
    """
    if t == 0:
        return 0, frozenset()
    if cap <= 0:
        return None
    greedy = pvc_greedy_upper(graph, t)
    incumbent = None
    if greedy.size <= cap:
        if first_found:
            return greedy.size, greedy.witness
        incumbent = list(greedy.witness)
    indptr, nbrs, _ = _csr_arrays(graph)
    size, witness = kernels.bb_min_cover(graph.n, indptr, nbrs, t, cap, incumbent, first_found)
    if size > cap:
        return None
    return size, frozenset(witness)


def pvc_exact(graph: Graph, t: int) -> PvcResult:
    """Minimum-cardinality vertex set covering at least t edges."""
    _check_target(graph, t)
    found = _search_min_cover(graph, t, graph.n, first_found=False)
    assert found is not None  # t <= m means the full vertex set qualifies
    size, witness = found
    return PvcResult(size, witness, coverage(graph, witness), METHOD_EXACT)


def pvc_decide(instance: PvcbInstance) -> bool:
    """True iff the instance graph has a t-partial cover of size at most k."""
    return _search_min_cover(instance.graph, instance.t, instance.k, first_found=True) is not None


def pvc_rho_decide(graph: Graph, l: int, rho) -> bool:
    """True iff some set of at most l vertices covers at least rho * m edges.

    The target ceil(rho * m) is computed in exact rational arithmetic.
    """
    rho = Fraction(rho)
    if not (0 < rho < 1):
        raise ValueError(f"rho must lie strictly between 0 and 1, got {rho}")
    if l < 0:
        raise ValueError(f"budget must be nonnegative, got {l}")
    target = math.ceil(rho * graph.m)
    cap = min(l, graph.n)
    return _search_min_cover(graph, target, cap, first_found=True) is not None


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
    length = c0.shape[0]
    g0 = np.full(length + 1, kernels.INF, dtype=np.int64)
    g1 = np.full(length + 1, kernels.INF, dtype=np.int64)
    np.minimum(g0[:length], c0, out=g0[:length])  # child unchosen, edge open
    np.minimum(g0[1:], c1, out=g0[1:])            # child chosen covers the edge
    g1[1:] = np.minimum(c0, c1)                   # chosen parent always covers it
    return g0, g1


def _base_table(selected: int) -> np.ndarray:
    return np.full(1, selected, dtype=np.int64)


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

    dp0: list[Optional[np.ndarray]] = [None] * graph.n
    dp1: list[Optional[np.ndarray]] = [None] * graph.n
    for v in reversed(order):
        t0 = _base_table(0)
        t1 = _base_table(1)
        for u in children[v]:
            g0, g1 = _child_tables(dp0[u], dp1[u])
            t0 = kernels.minplus(t0, g0)
            t1 = kernels.minplus(t1, g1)
        dp0[v] = t0
        dp1[v] = t1

    comp_tables: list[np.ndarray] = []
    for r in roots:
        exact = np.minimum(dp0[r], dp1[r])
        at_least = np.minimum.accumulate(exact[::-1])[::-1]
        comp_tables.append(at_least)

    prefixes: list[np.ndarray] = [np.zeros(1, dtype=np.int64)]
    for tab in comp_tables:
        prefixes.append(kernels.minplus(prefixes[-1], tab))
    size = int(prefixes[-1][t])
    assert size < kernels.INF

    # split the requirement across components, then walk each subtree
    comp_req = [0] * len(comp_tables)
    req = t
    for j in range(len(comp_tables), 0, -1):
        tab = comp_tables[j - 1]
        prev = prefixes[j - 1]
        value = int(prefixes[j][req])
        for c2 in range(min(req, tab.shape[0] - 1) + 1):
            c1 = req - c2
            if c1 < prev.shape[0] and int(prev[c1]) + int(tab[c2]) == value:
                comp_req[j - 1] = c2
                req = c1
                break
        else:
            raise AssertionError("component split not found")

    selected: list[int] = []
    for r, c_req, tab in zip(roots, comp_req, comp_tables):
        if c_req == 0 and int(tab[0]) == 0:
            continue
        target_val = int(tab[c_req])
        exact = np.minimum(dp0[r], dp1[r])
        c_exact = -1
        for c in range(c_req, exact.shape[0]):
            if int(exact[c]) == target_val:
                c_exact = c
                break
        assert c_exact >= 0
        s = 0 if int(dp0[r][c_exact]) == target_val else 1
        _traceback(r, s, c_exact, dp0, dp1, children, selected)

    witness = frozenset(selected)
    assert len(witness) == size
    achieved = coverage(graph, witness)
    assert achieved >= t
    return PvcResult(size, witness, achieved, METHOD_TREE)


def _traceback(root, root_state, root_cov, dp0, dp1, children, selected) -> None:
    stack = [(root, root_state, root_cov)]
    while stack:
        v, s, c = stack.pop()
        if s == 1:
            selected.append(v)
        kids = children[v]
        if not kids:
            assert c == 0
            continue
        seq = [_base_table(s)]
        gs: list[np.ndarray] = []
        for u in kids:
            g0, g1 = _child_tables(dp0[u], dp1[u])
            g = g1 if s == 1 else g0
            gs.append(g)
            seq.append(kernels.minplus(seq[-1], g))
        c_rem = c
        for j in range(len(kids), 0, -1):
            val = int(seq[j][c_rem])
            g = gs[j - 1]
            u = kids[j - 1]
            placed = False
            # g1[0] is INF (a chosen parent always covers the link edge), so
            # with s == 1 the split starts at x = 1 and x - 1 never wraps
            for x in range(s, min(c_rem, g.shape[0] - 1) + 1):
                c1 = c_rem - x
                if c1 >= seq[j - 1].shape[0]:
                    continue
                if int(seq[j - 1][c1]) + int(g[x]) != val:
                    continue
                if s == 1:
                    # child index shifted by the always-covered link edge
                    if x - 1 < dp0[u].shape[0] and int(dp0[u][x - 1]) == int(g[x]):
                        stack.append((u, 0, x - 1))
                    else:
                        stack.append((u, 1, x - 1))
                else:
                    if x < dp0[u].shape[0] and int(dp0[u][x]) == int(g[x]):
                        stack.append((u, 0, x))
                    else:
                        stack.append((u, 1, x - 1))
                c_rem = c1
                placed = True
                break
            assert placed
        assert c_rem == 0
