"""Independent reference for partial vertex cover: a 0/1 integer program.

Minimise sum(x) subject to y_e <= x_u + x_v for every edge e = (u, v) and
sum(y) >= t, all variables binary. Solved with HiGHS through
``scipy.optimize.milp``; shares no code with the solvers under test.
"""

from __future__ import annotations

import numpy as np
from scipy.optimize import Bounds, LinearConstraint, milp
from scipy.sparse import coo_matrix


def min_partial_cover(n: int, edges, t: int) -> int:
    """Size of the smallest vertex set covering at least ``t`` of ``edges``."""
    m = len(edges)
    if not 0 <= t <= m:
        raise ValueError(f"target {t} outside [0, {m}]")
    if t == 0:
        return 0
    rows = np.repeat(np.arange(m), 3)
    cols = np.empty(3 * m, dtype=np.int64)
    vals = np.tile(np.array([1.0, -1.0, -1.0]), m)
    e = np.asarray(edges, dtype=np.int64).reshape(m, 2)
    cols[0::3] = n + np.arange(m)
    cols[1::3] = e[:, 0]
    cols[2::3] = e[:, 1]
    rows = np.concatenate([rows, np.full(m, m)])
    cols = np.concatenate([cols, n + np.arange(m)])
    vals = np.concatenate([vals, np.ones(m)])
    a = coo_matrix((vals, (rows, cols)), shape=(m + 1, n + m)).tocsr()
    lower = np.full(m + 1, -np.inf)
    upper = np.zeros(m + 1)
    lower[m], upper[m] = t, np.inf
    res = milp(
        np.concatenate([np.ones(n), np.zeros(m)]),
        constraints=LinearConstraint(a, lower, upper),
        integrality=np.ones(n + m),
        bounds=Bounds(0, 1),
    )
    if res.status != 0:
        raise RuntimeError(f"ILP reference failed: {res.message}")
    return int(round(res.fun))
