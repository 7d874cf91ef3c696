"""Hot search kernels, one source each.

The subset-enumeration profile and the min-plus merge are vectorized numpy;
``_cover_profile_loop`` is the plain-Python reference the tests check the
profile against. The branch-and-bound search is plain Python over lists and
prunes with two bounds: the uncoverable-edge count (edges whose endpoints
are both skipped) and the degree-sum bound.
``benchmarks/bench_kernels.py`` times the kernels.
"""

from __future__ import annotations

import numpy as np

INF = int(np.int64(1) << np.int64(40))


def backend() -> str:
    """Name of the kernel backend: always 'numpy'."""
    return "numpy"


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


def cover_profile(n: int, edge_u: np.ndarray, edge_v: np.ndarray) -> np.ndarray:
    """Max coverage per subset size over all 2^n subsets (full enumeration)."""
    if n > 26:
        raise ValueError(f"subset enumeration guard: n={n} > 26")
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
    pruned when more than m - target edges have both endpoints skipped: no
    completion covers those, so none reaches the target (the uncoverable-edge
    bound, O(1); it decides the vertex-cover end t ~ m, where the next bound
    is weak). It is also pruned when the ``avail`` largest residual degrees
    of the free vertices, ``avail`` being how many more vertices could still
    beat the incumbent, sum to less than the edges left to cover (the
    degree-sum bound of Kneis, Mölle, Richter and Rossmanith, ISAAC 2006).
    Neither cuts a subtree holding a cover that beats the incumbent, so the
    incumbents, and the witness returned, are those of the unpruned search.
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
    skipped_dead = [0] * n       # edges to skipped vertices a skip made uncoverable
    status = [0] * n             # 0 free, 1 chosen, 2 skipped
    chosen = []
    covered = 0
    dead = 0                     # edges with both endpoints skipped
    slack = len(nbrs) // 2 - target  # how many edges may stay uncovered
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
            elif avail > 0 and dead <= slack:
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
            dead -= skipped_dead[v]
            explore = False
            continue
        chosen.pop()
        status[v] = 2
        d = lost = 0
        for w in adj[v]:
            if status[w] != 1:
                d += 1
                if status[w] == 0:
                    deg[w] += 1
                else:
                    lost += 1
        covered -= d
        dead += lost
        skipped_deg[v] = d
        skipped_dead[v] = lost
        stack.append(op + 1)
        explore = True
    return best_size, best


# ---------------------------------------------------------------------------
# min-plus (tropical) convolution for the tree knapsack merge


def minplus(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Min-plus convolution; INF marks unreachable entries.

    A one-cell operand, the tree DP's every first fold into a base table,
    takes one add and a clamp; longer ones fold row by row.
    """
    if a.shape[0] > b.shape[0]:
        a, b = b, a
    if a.shape[0] == 1:
        out = int(a[0]) + b  # an INF a[0] clamps every cell to INF
        np.minimum(out, INF, out=out)
        return out
    out = np.full(a.shape[0] + b.shape[0] - 1, INF, dtype=np.int64)
    for i in range(a.shape[0]):
        ai = int(a[i])
        if ai >= INF:
            continue
        seg = out[i:i + b.shape[0]]
        np.minimum(seg, ai + b, out=seg)
    np.minimum(out, INF, out=out)
    return out
