"""Independent baselines used to cross-check the solvers.

These deliberately share no search code with the branch-and-bound path in
:mod:`pvcmon.pvc`: most reduce ``kernels.enumerate_subsets`` over every
vertex subset, each by its own formula, and :func:`min_cover_size_ilp`
hands the problem to an integer-program solver (optional, needs scipy) to
reach sizes enumeration cannot.
"""

from __future__ import annotations

import numpy as np

from . import kernels
from .errors import InfeasibleTargetError
from .graph import Graph

# Largest vertex count the enumeration oracles take (2^20 subsets), unless
# ``cover_profile`` is given its own.
ENUM_MAX_N = 20


def cover_profile(graph: Graph, max_n: int = ENUM_MAX_N) -> list[int]:
    """For each subset size k, the max number of edges coverable by k vertices."""
    if graph.n > max_n:
        raise ValueError(f"enumeration guard: n={graph.n} > {max_n}")
    return kernels.cover_profile(graph.n, *_edge_arrays(graph)).tolist()


def _edge_arrays(graph: Graph) -> np.ndarray:
    """The edges' endpoint columns u and v, as the coverage kernels take them."""
    return np.array(graph.edges, dtype=np.int64).reshape(-1, 2).T


def min_cover_size(graph: Graph, t: int) -> int:
    """Minimum subset size covering at least t edges, by full enumeration."""
    if t < 0 or t > graph.m:
        raise InfeasibleTargetError(f"target {t} outside [0, {graph.m}]")
    profile = cover_profile(graph)
    for k, cov in enumerate(profile):
        if cov >= t:
            return k
    raise AssertionError("profile must reach m")  # t <= m makes this unreachable


def min_cover_size_ilp(graph: Graph, t: int) -> int:
    """Minimum subset size covering at least t edges, by a 0/1 integer program.

    Minimise sum(x) subject to y_e <= x_u + x_v for every edge e = (u, v) and
    sum(y) >= t, all variables binary, solved by HiGHS through
    ``scipy.optimize.milp``. Raises ImportError when scipy is missing.
    """
    if t < 0 or t > graph.m:
        raise InfeasibleTargetError(f"target {t} outside [0, {graph.m}]")
    if t == 0:
        return 0
    from scipy.optimize import Bounds, LinearConstraint, milp
    from scipy.sparse import csr_matrix

    n, m = graph.n, graph.m
    # variables: x_0..x_{n-1}, then y_0..y_{m-1}; rows 0..m-1 read
    # y_e - x_u - x_v <= 0 and row m reads sum(y) >= t
    rows, cols, vals = [], [], []
    for e, (u, v) in enumerate(graph.edges):
        rows += [e, e, e, m]
        cols += [n + e, u, v, n + e]
        vals += [1.0, -1.0, -1.0, 1.0]
    lower = np.full(m + 1, -np.inf)
    upper = np.zeros(m + 1)
    lower[m], upper[m] = t, np.inf
    res = milp(
        c=np.concatenate([np.ones(n), np.zeros(m)]),
        constraints=LinearConstraint(csr_matrix((vals, (rows, cols)), shape=(m + 1, n + m)), lower, upper),
        integrality=np.ones(n + m),
        bounds=Bounds(0, 1),
    )
    if not res.success:
        raise RuntimeError(f"ILP solve failed: {res.message}")
    return int(round(res.fun))


def max_independent_set_size(graph: Graph) -> int:
    """Brute-force independence number (used to cross-check cover boundaries)."""
    if graph.n > ENUM_MAX_N:
        raise ValueError(f"enumeration guard: n={graph.n} > {ENUM_MAX_N}")
    edges = np.array([(1 << u) | (1 << v) for u, v in graph.edges], dtype=np.int64)[:, None]

    def size_if_independent(masks):
        return np.where(((edges & masks) == edges).any(axis=0), 0, np.bitwise_count(masks))
    return int(kernels.enumerate_subsets(graph.n, kernels.size_max(graph.n, size_if_independent))[0][-1])
