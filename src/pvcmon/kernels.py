"""Hot search kernels, one source each.

``enumerate_subsets`` feeds all 2^n vertex subsets, in numpy chunks, to
the folds of every exhaustive oracle. The min-plus merge convolves
stacked tables (the tree DP's two vertex states) in one call, cut to the
cells its caller reads: short list tables in a plain-Python loop, one
pass over the cells, arrays by blocks of rows, each block one skewed
buffer and one min, instead of one numpy step per row; a one-cell operand
takes the same blocks, and the tree DP passes none, since a shape's first
step and the first component's table need no fold. The branch-and-bound
search is plain Python over lists, has one mode (the smallest cover below
a given incumbent; decisions ask ``pvc.solve_pvc`` and compare its size)
and prunes with three bounds: the uncoverable-edge count (edges whose
endpoints are both skipped), the degree-sum bound and, once no more edges
may stay uncovered, the forced-neighbour bound. It tests each child
before building it and counts the states it tests.
``benchmarks/bench_kernels.py`` times the kernels.
"""

from __future__ import annotations

import numpy as np

INF = 1 << 40


def backend() -> str:
    """Name of the kernel backend: always 'numpy'."""
    return "numpy"


# ---------------------------------------------------------------------------
# subset enumeration and the coverage profile

# Largest vertex count whose 2^n subsets ``enumerate_subsets`` walks.
SUBSET_GUARD = 26

# Subsets a chunk: with m <= C(26, 2) = 325, a fold's chunk-by-edge arrays
# stay under 2^22 cells.
_CHUNK = 1 << 13


def enumerate_subsets(n: int, *folds) -> list:
    """Run each fold, a (step, result) pair, over every subset of n
    vertices; the list of the results' answers. Each step gets the subsets
    as int64 bitmasks in increasing order, chunk by chunk with their sizes,
    as ``step(masks, sizes)``, so the first subset it meets is the least.
    Refuses n > SUBSET_GUARD with a ValueError before any subset is built."""
    if n > SUBSET_GUARD:
        raise ValueError(f"subset enumeration guard: n={n} > {SUBSET_GUARD}")
    end = 1 << n
    for start in range(0, end, _CHUNK):
        masks = np.arange(start, min(start + _CHUNK, end), dtype=np.int64)
        sizes = np.bitwise_count(masks).astype(np.int64)
        for step, _ in folds:
            step(masks, sizes)
    return [result() for _, result in folds]


def size_max(n: int, value) -> tuple:
    """The fold of the largest ``value(masks)`` over the subsets of at most
    k vertices, for each k (an int64 array)."""
    best = np.zeros(n + 1, dtype=np.int64)

    def step(masks, sizes):
        np.maximum.at(best, sizes, value(masks))
    return step, lambda: np.maximum.accumulate(best)


def cover_fold(n: int, edge_u: np.ndarray, edge_v: np.ndarray) -> tuple:
    """The fold of ``cover_profile``: edge (u, v) is covered by a subset
    that meets ``1 << u | 1 << v``."""
    edges = (np.left_shift(1, edge_u) | np.left_shift(1, edge_v))[:, None]
    return size_max(n, lambda masks: ((edges & masks) != 0).sum(axis=0))


def cover_profile(n: int, edge_u: np.ndarray, edge_v: np.ndarray) -> np.ndarray:
    """Max coverage per subset size over all 2^n subsets (full enumeration)."""
    return enumerate_subsets(n, cover_fold(n, edge_u, edge_v))[0]


# ---------------------------------------------------------------------------
# branch-and-bound minimum partial cover


def bb_min_cover(n, indptr, nbrs, target, incumbent):
    """Smallest vertex set covering >= target edges, searched below an incumbent.

    The simple graph comes as CSR arrays (``indptr``, ``nbrs``). ``incumbent``
    is a vertex list covering >= target edges. Returns ``(witness, nodes)``:
    the smallest set found as a vertex list, or the incumbent when nothing
    smaller exists, and the number of search states tested against the
    bounds (the root, every choose child and every skip child, those
    rejected before they are built included).

    Depth-first: branch on the free vertex of maximum residual degree (lowest
    id on ties), first choosing it, then skipping it for the whole subtree;
    every strictly smaller cover found replaces the incumbent. A state is
    cut on three bounds:

    * uncoverable edges: more than m - target edges have both endpoints
      skipped, so no completion reaches the target (O(1));
    * degree sum: the ``avail`` largest residual degrees of the free
      vertices, ``avail`` being how many more vertices could still beat the
      incumbent, sum to less than the edges left to cover (Kneis, Mölle,
      Richter and Rossmanith, ISAAC 2006);
    * forced neighbours, when exactly m - target edges are uncoverable: then
      every free vertex with a skipped neighbour is in every completion, and
      the bound chooses them virtually (``_forced_cut``).

    A built node sorts its residual degrees once. Skipping a pivot changes
    no other residual degree, so the node's skip children, one per pivot in
    that sorted order, are tested from the node's own sort before anything
    is written, and a choose child that reaches the target is recorded
    without touching a degree. Each child has its own degree list, so
    leaving it undoes nothing. No bound cuts a subtree holding a cover that
    beats the incumbent, so the incumbents, and the witness returned, are
    those of the unpruned search in the same order.
    """
    indptr = indptr.tolist()
    nbrs = nbrs.tolist()
    adj = [nbrs[indptr[v]:indptr[v + 1]] for v in range(n)]
    best_size, best = len(incumbent), incumbent
    slack = len(nbrs) // 2 - target  # how many edges may stay uncovered
    deg = [len(a) for a in adj]      # residual degree of each free vertex, 0 otherwise
    ranked = sorted(deg, reverse=True)
    if target <= 0:
        return [], 1
    if best_size <= 1 or slack < 0 or sum(ranked[:best_size - 1]) < target:
        return best, 1
    nodes = 1
    masks = touch = None  # neighbour bitmasks, built at the first forced-neighbour test
    chosen = []
    stack = []
    # The state of the node on top: its degrees and their sort; ranked[:i]
    # are its pivots skipped so far; dead edges have both endpoints skipped;
    # gone marks chosen and skipped vertices; touch the neighbours of skipped
    # ones (None until a forced-neighbour test needs it); free counts the
    # pivot's free neighbours. The skip test can pass only when free is
    # counted: a choose child that reaches the target leaves avail at 0; an
    # unbuilt one means avail <= 1 and ranked[i + 1] <= d < need; otherwise
    # free was counted building the child, or restored from the stack.
    need, i, dead, gone = target, 0, 0, 0
    while True:
        d = ranked[i]
        v = deg.index(d)
        nodes += 1  # the choose child of pivot v
        avail = best_size - 1 - len(chosen)
        if d >= need:
            best_size, best = len(chosen) + 1, chosen + [v]
        elif avail > 1:
            child = deg[:]
            child[v] = 0
            free = 0
            for w in adj[v]:
                if child[w]:
                    child[w] -= 1
                    free += 1
            order = sorted(child, reverse=True)
            if sum(order[:avail - 1]) >= need - d:
                cut = False
                if dead == slack and gone:
                    if touch is None:
                        masks, touch = _touched(adj, masks, gone, chosen)
                    # with v among the forced, the test is the one this
                    # state passed on entry
                    if touch and not touch >> v & 1:
                        forced = touch & ~(gone | 1 << v)
                        if forced:
                            cut = _forced_cut(child, order, adj, masks, forced, need - d, avail - 1)
                if not cut:
                    stack.append((deg, ranked, i, need, dead, gone, touch, free))
                    chosen.append(v)
                    deg, ranked, i, need, gone = child, order, 0, need - d, gone | 1 << v
                    continue
        while True:
            nodes += 1  # the skip child of pivot v, tested before it is built
            avail = best_size - 1 - len(chosen)
            if avail > 0 and sum(ranked[i + 1:i + 1 + avail]) >= need:
                lost = d - free  # v's skipped neighbours
                if dead + lost <= slack:
                    deg[v] = 0
                    gone |= 1 << v
                    if touch is not None:
                        touch |= masks[v]
                    cut = False
                    if dead + lost == slack:
                        if touch is None:
                            masks, touch = _touched(adj, masks, gone, chosen)
                        forced = touch & ~gone
                        if forced:
                            cut = _forced_cut(deg, ranked[i + 1:], adj, masks, forced, need, avail)
                    if not cut:
                        dead += lost
                        i += 1
                        break
            # the node is done: back to its parent's pivot
            if not stack:
                return best, nodes
            chosen.pop()
            deg, ranked, i, need, dead, gone, touch, free = stack.pop()
            d = ranked[i]
            v = deg.index(d)


def _touched(adj, masks, gone, chosen) -> tuple:
    """The neighbour bitmasks, built from ``adj`` when ``masks`` is None,
    and the bitmask of the neighbours of the skipped vertices: those in
    ``gone`` but not in ``chosen``."""
    if masks is None:
        masks = [sum(1 << w for w in a) for a in adj]
    skipped = gone
    for c in chosen:
        skipped &= ~(1 << c)
    touch = 0
    while skipped:
        low = skipped & -skipped
        touch |= masks[low.bit_length() - 1]
        skipped ^= low
    return masks, touch


def _forced_cut(deg, ranked, adj, masks, forced, need, avail) -> bool:
    """The forced-neighbour bound: True when no ``avail`` more vertices
    that include the ``forced`` ones cover ``need`` more edges.

    ``deg`` holds the state's residual degrees and ``ranked`` them sorted
    (descending; it may also list the forced vertices). The forced vertices
    cover their residual edges, those between two of them once; every other
    free vertex keeps its residual degree less its forced neighbours, and
    the degree-sum bound is tested on those with what is left to cover.
    """
    k = forced.bit_count()
    if k > avail:
        return True
    rest = deg[:]
    cover = inner = 0
    members = []
    bits = forced
    while bits:
        low = bits & -bits
        w = low.bit_length() - 1
        members.append(w)
        cover += rest[w]
        rest[w] = 0
        inner += (masks[w] & forced).bit_count()
        bits ^= low
    need -= cover - inner // 2
    if need <= 0:
        return False
    avail -= k
    if avail <= 0 or sum(ranked[:avail]) < need:
        return True
    for w in members:
        for u in adj[w]:
            if rest[u]:
                rest[u] -= 1
    rest.sort(reverse=True)
    return sum(rest[:avail]) < need


# ---------------------------------------------------------------------------
# min-plus (tropical) convolution for the tree knapsack merge


# Cells in one block of the blocked min-plus (rows of sums times the longer
# operand's length): 128 KiB of int64, small enough to stay in cache.
_BLOCK_CELLS = 1 << 14

# Largest fold, in sums a row (the two operands' lengths multiplied), that
# min-plus on list operands runs as a plain-Python loop: below it numpy's
# per-call overhead of a few microseconds outweighs the arithmetic. The
# one-pass loop made 96 faster than 48 on random recursive trees. A rule
# on (shorter - 1) x longer sums was no faster, and it would answer every
# one-cell fold by the loop, keeping a deep path's tables as lists.
LIST_CELLS = 96


def minplus(a, b, size):
    """Min-plus convolution along the last axis; INF marks unreachable entries.

    ``a`` and ``b`` have the same leading shape (the tree DP stacks a
    vertex's two state tables as one (2, L) operand), and each row of the
    result convolves the matching rows. An operand is an int64 array or,
    for short tables, a sequence of rows that are Python lists of ints
    (the tree DP's pair of lists). The result is cut to its first ``size``
    cells, which read only the operands' first ``size`` cells; a ``size``
    of at least the two row lengths summed less one gives the whole
    convolution. When both are lists and the fold has at most
    ``LIST_CELLS`` sums a row, a plain-Python loop answers with a tuple of
    row lists; otherwise the numpy path answers with a new array,
    converting any list operand. There the shorter operand goes by blocks
    of ``_BLOCK_CELLS // len(b)`` cells (``_skew_min``), a one-cell operand
    as any other, and a block that holds them all is the result. Inputs
    are never written.
    """
    if type(a) is not np.ndarray:
        if type(b) is not np.ndarray and len(a[0]) * len(b[0]) <= LIST_CELLS:
            return _minplus_lists(a, b, size)
        a = np.array(a, dtype=np.int64)
    if type(b) is not np.ndarray:
        b = np.array(b, dtype=np.int64)
    if a.shape[-1] > b.shape[-1]:
        a, b = b, a
    width = a.shape[-1] + b.shape[-1] - 1
    if size < width:
        width = size
        a, b = a[..., :size], b[..., :size]
    la, lb = a.shape[-1], b.shape[-1]
    rows = max(1, _BLOCK_CELLS // lb)
    if la <= rows:
        out = _skew_min(a, b, width)
    else:
        out = np.full((*a.shape[:-1], width), INF, dtype=np.int64)
        for i in range(0, la, rows):
            part = _skew_min(a[..., i:i + rows], b, width - i)
            seg = out[..., i:i + part.shape[-1]]
            np.minimum(seg, part, out=seg)
    np.minimum(out, INF, out=out)
    return out


def _minplus_lists(a, b, size) -> tuple:
    """Min-plus of two sequences of list rows, row by row, in plain Python,
    each row cut to its first ``size`` cells.

    Each result row starts all INF. For each finite cell x of the shorter
    row, one pass over the longer row lowers each cell it reaches to x
    plus the longer row's cell; the INF start clamps every sum above INF.
    """
    out = []
    for ra, rb in zip(a, b):
        if len(ra) > len(rb):
            ra, rb = rb, ra
        row = [INF] * (len(ra) + len(rb) - 1)
        for i, x in enumerate(ra):
            if x < INF:
                for y in rb:
                    y += x
                    if y < row[i]:
                        row[i] = y
                    i += 1
        out.append(row[:size])
    return tuple(out)


def _skew_min(a: np.ndarray, b: np.ndarray, width: int) -> np.ndarray:
    """One block of min-plus: the first ``width`` cells of the unclamped
    convolution of a block of cells ``a`` with all of ``b``.

    Row i of the sums ``a[i] + b`` goes into a buffer padded on the right
    with INF; re-read with rows one cell shorter, row i starts i cells
    further right, so one min down the rows is the block's result.
    """
    lead, r, lb = a.shape[:-1], a.shape[-1], b.shape[-1]
    full = lb + r - 1
    buf = np.empty((*lead, r, lb + r), dtype=np.int64)
    buf[..., lb:] = INF
    np.add(a[..., None], b[..., None, :], out=buf[..., :lb])
    rows = buf.reshape(*lead, r * (lb + r))[..., :r * full].reshape(*lead, r, full)
    return rows[..., :width].min(axis=-2)
