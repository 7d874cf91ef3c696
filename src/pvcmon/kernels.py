"""Hot search kernels.

The subset-enumeration profile and the min-plus merge are numba-jitted when
numba is installed (the optional ``jit`` extra) and run as vectorized numpy
otherwise; the backend is chosen once at import time, and ``PVCMON_NUMBA=0``
forces numpy. The branch-and-bound search has one source in either backend:
plain Python over lists. ``benchmarks/bench_kernels.py`` times the kernels.
"""

from __future__ import annotations

import os

import numpy as np

INF = int(np.int64(1) << np.int64(40))


def _numba_requested() -> bool:
    flag = os.environ.get("PVCMON_NUMBA", "1").strip().lower()
    return flag not in ("0", "false", "off", "no")


NUMBA_ENABLED = False
if _numba_requested():
    try:
        from numba import njit

        NUMBA_ENABLED = True
    except ImportError:
        pass


def backend() -> str:
    """Name of the active kernel backend: 'numba' or 'numpy'."""
    return "numba" if NUMBA_ENABLED else "numpy"


# ---------------------------------------------------------------------------
# subset-enumeration coverage profile


def _cover_profile_loop(n, edge_u, edge_v):
    # best[k] = max number of edges covered by any vertex subset of size k
    m = edge_u.shape[0]
    best = np.zeros(n + 1, dtype=np.int64)
    for mask in range(1 << n):
        cov = 0
        for j in range(m):
            if ((mask >> edge_u[j]) & 1) | ((mask >> edge_v[j]) & 1):
                cov += 1
        size = 0
        rest = mask
        while rest:
            rest &= rest - 1
            size += 1
        if cov > best[size]:
            best[size] = cov
    for k in range(1, n + 1):
        if best[k] < best[k - 1]:
            best[k] = best[k - 1]
    return best


def _cover_profile_numpy(n, edge_u, edge_v):
    best = np.zeros(n + 1, dtype=np.int64)
    chunk = 1 << min(n, 20)  # bound peak memory on large enumerations
    for start in range(0, 1 << n, chunk):
        masks = np.arange(start, start + chunk, dtype=np.int64)
        cov = np.zeros(masks.shape[0], dtype=np.int64)
        for j in range(edge_u.shape[0]):
            cov += ((masks >> int(edge_u[j])) | (masks >> int(edge_v[j]))) & 1
        sizes = np.bitwise_count(masks).astype(np.int64)
        np.maximum.at(best, sizes, cov)
    np.maximum.accumulate(best, out=best)
    return best


_cover_profile_py = _cover_profile_loop
if NUMBA_ENABLED:
    _cover_profile_jit = njit(cache=True)(_cover_profile_loop)


def cover_profile(n: int, edge_u: np.ndarray, edge_v: np.ndarray) -> np.ndarray:
    """Max coverage per subset size over all 2^n subsets (full enumeration)."""
    if n > 26:
        raise ValueError(f"subset enumeration guard: n={n} > 26")
    if NUMBA_ENABLED:
        return _cover_profile_jit(n, edge_u, edge_v)
    return _cover_profile_numpy(n, edge_u, edge_v)


# ---------------------------------------------------------------------------
# branch-and-bound minimum partial cover


def bb_min_cover(n, indptr, nbrs, target, cap, incumbent, first_found):
    """Smallest vertex set covering >= target edges, searched below an incumbent.

    The simple graph comes as CSR arrays (``indptr``, ``nbrs``). ``incumbent``
    is a vertex list of size <= cap covering >= target edges, or None to
    search below cap + 1. Returns ``(size, witness)``: the smallest set found
    and its vertex list, or the incumbent (``cap + 1`` and ``[]`` without one)
    when nothing smaller exists. With ``first_found`` the search stops at the
    first improvement, which is enough to decide whether a set of size <= cap
    exists.

    Depth-first: branch on the free vertex of maximum residual degree (lowest
    id on ties), first choosing it, then skipping it for the whole subtree;
    every strictly smaller cover found replaces the incumbent. A node is
    pruned when the ``avail`` largest residual degrees of the free vertices,
    ``avail`` being how many more vertices could still beat the incumbent,
    sum to less than the edges left to cover (the degree-sum bound of Kneis,
    Mölle, Richter and Rossmanith, ISAAC 2006).
    """
    indptr = indptr.tolist()
    nbrs = nbrs.tolist()
    adj = [nbrs[indptr[v]:indptr[v + 1]] for v in range(n)]
    if incumbent is None:
        best_size, best = cap + 1, []
    else:
        best_size, best = len(incumbent), incumbent
    deg = [len(a) for a in adj]  # residual degree of each free vertex, 0 otherwise
    skipped_deg = [0] * n        # residual degree a skipped vertex gets back
    status = [0] * n             # 0 free, 1 chosen, 2 skipped
    chosen = []
    covered = 0
    stack = []                   # 2v: leave v's choose branch; 2v + 1: its skip branch
    explore = True
    while True:
        if explore:
            need = target - covered
            avail = best_size - 1 - len(chosen)
            if need <= 0:
                if len(chosen) < best_size:
                    best_size, best = len(chosen), chosen[:]
                    if first_found:
                        break
            elif avail > 0:
                ranked = sorted(deg, reverse=True)
                if sum(ranked[:avail]) >= need:
                    top = ranked[0]
                    v = deg.index(top)
                    status[v] = 1
                    chosen.append(v)
                    covered += top
                    deg[v] = 0
                    for w in adj[v]:
                        if status[w] == 0:
                            deg[w] -= 1
                    stack.append(2 * v)
                    continue
        if not stack:
            break
        op = stack.pop()
        v = op >> 1
        if op & 1:
            status[v] = 0
            deg[v] = skipped_deg[v]
            explore = False
            continue
        chosen.pop()
        status[v] = 2
        d = 0
        for w in adj[v]:
            if status[w] != 1:
                d += 1
                if status[w] == 0:
                    deg[w] += 1
        covered -= d
        skipped_deg[v] = d
        stack.append(op + 1)
        explore = True
    return best_size, best


# ---------------------------------------------------------------------------
# min-plus (tropical) convolution for the tree knapsack merge


def _minplus_loop(a, b):
    na = a.shape[0]
    nb = b.shape[0]
    out = np.full(na + nb - 1, INF, dtype=np.int64)
    for i in range(na):
        ai = a[i]
        if ai >= INF:
            continue
        for j in range(nb):
            s = ai + b[j]
            if s < out[i + j]:
                out[i + j] = s
    for k in range(out.shape[0]):
        if out[k] > INF:
            out[k] = INF
    return out


def _minplus_numpy(a, b):
    if a.shape[0] > b.shape[0]:
        a, b = b, a
    out = np.full(a.shape[0] + b.shape[0] - 1, INF, dtype=np.int64)
    for i in range(a.shape[0]):
        ai = int(a[i])
        if ai >= INF:
            continue
        seg = out[i:i + b.shape[0]]
        np.minimum(seg, ai + b, out=seg)
    np.minimum(out, INF, out=out)
    return out


_minplus_py = _minplus_loop
if NUMBA_ENABLED:
    _minplus_jit = njit(cache=True)(_minplus_loop)


def minplus(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Min-plus convolution; INF marks unreachable entries."""
    if NUMBA_ENABLED:
        return _minplus_jit(a, b)
    return _minplus_numpy(a, b)
