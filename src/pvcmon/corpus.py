"""Small-graph generators for the verification batteries and tests."""

from __future__ import annotations

import heapq
import random
from itertools import combinations, combinations_with_replacement
from typing import Iterator

from .graph import Graph


def path_graph(n: int) -> Graph:
    return Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise ValueError("cycles need at least 3 vertices")
    return Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def complete_graph(n: int) -> Graph:
    return Graph.from_edges(n, list(combinations(range(n), 2)))


def star_graph(leaves: int) -> Graph:
    return Graph.from_edges(leaves + 1, [(0, i) for i in range(1, leaves + 1)])


def complete_bipartite(a: int, b: int) -> Graph:
    return Graph.from_edges(a + b, [(i, a + j) for i in range(a) for j in range(b)])


def spider_graph(legs: int, leg_length: int) -> Graph:
    """A center vertex with ``legs`` paths of ``leg_length`` edges attached."""
    edges = []
    nxt = 1
    for _ in range(legs):
        prev = 0
        for _ in range(leg_length):
            edges.append((prev, nxt))
            prev = nxt
            nxt += 1
    return Graph.from_edges(nxt, edges)


def all_labeled_graphs(n: int) -> Iterator[Graph]:
    """Every labeled simple graph on n vertices (2^(n choose 2) of them)."""
    pairs = list(combinations(range(n), 2))
    for mask in range(1 << len(pairs)):
        yield Graph.from_edges(n, [pairs[i] for i in range(len(pairs)) if (mask >> i) & 1])


def random_graph(n: int, p: float, rng: random.Random) -> Graph:
    edges = [e for e in combinations(range(n), 2) if rng.random() < p]
    return Graph.from_edges(n, edges)


def random_tree(n: int, rng: random.Random) -> Graph:
    """Uniform random labeled tree via a random parent-code sequence."""
    if n <= 1:
        return Graph.from_edges(n, [])
    if n == 2:
        return Graph.from_edges(2, [(0, 1)])
    code = [rng.randrange(n) for _ in range(n - 2)]
    degree = [1] * n
    for v in code:
        degree[v] += 1
    leaves = [v for v in range(n) if degree[v] == 1]
    heapq.heapify(leaves)
    edges = []
    for v in code:
        leaf = heapq.heappop(leaves)
        edges.append((leaf, v))
        degree[v] -= 1
        if degree[v] == 1:
            heapq.heappush(leaves, v)
    u = heapq.heappop(leaves)
    w = heapq.heappop(leaves)
    edges.append((u, w))
    return Graph.from_edges(n, edges)


def random_recursive_tree(n: int, rng: random.Random) -> Graph:
    """Random recursive tree under a random labelling: each vertex, in a
    shuffled order, attaches to a uniformly chosen earlier one. These trees
    are shallow (depth ~ ln n), like the benchmark's cli trees."""
    order = list(range(n))
    rng.shuffle(order)
    return Graph.from_edges(n, [tuple(sorted((order[i], order[rng.randrange(i)]))) for i in range(1, n)])


def random_bipartite_degree_dominant(rng: random.Random, max_n: int = 14) -> tuple[Graph, tuple[int, ...]]:
    """Random bipartite graph whose X side degree-dominates the Y side.

    Returns the graph and its X side (ids 0..|X|-1). Dense X neighborhoods
    make min-degree(X) >= max-degree(Y) hold almost always; rejected draws
    are retried.
    """
    while True:
        if rng.random() < 0.25:
            a = rng.randint(1, 5)
            b = rng.randint(a, max(a, max_n - a - 1))
            if a + b > max_n:
                continue
            return complete_bipartite(a, b), tuple(range(a))
        ny = rng.randint(2, 9)
        nx = rng.randint(1, max(1, min(5, (7 * ny) // 10)))
        if nx + ny > max_n:
            continue
        lo = max(1, (3 * ny + 3) // 4)
        edges = []
        for x in range(nx):
            size = rng.randint(lo, ny)
            for y in rng.sample(range(ny), size):
                edges.append((x, nx + y))
        g = Graph.from_edges(nx + ny, edges)
        deg = g.degrees
        min_x = min(deg[v] for v in range(nx))
        max_y = max(deg[v] for v in range(nx, nx + ny))
        if min_x >= max_y and min_x > 0:
            return g, tuple(range(nx))


# ---------------------------------------------------------------------------
# exhaustive free trees (one representative per isomorphism class)

_FormsBySize = dict[int, list[tuple]]


def _rooted_forms(max_size: int) -> _FormsBySize:
    # A form is the tuple of its children's forms in fixed descending order,
    # which makes equal forms identical tuples.
    forms: _FormsBySize = {1: [()]}
    for size in range(2, max_size + 1):
        candidates = [
            (sz, form)
            for sz in range(size - 1, 0, -1)
            for form in forms[sz]
        ]
        candidates.sort(key=lambda item: (item[0], item[1]), reverse=True)
        results: list[tuple] = []

        def extend(remaining: int, start: int, acc: list[tuple]) -> None:
            if remaining == 0:
                results.append(tuple(acc))
                return
            for i in range(start, len(candidates)):
                sz, form = candidates[i]
                if sz > remaining:
                    continue
                acc.append(form)
                extend(remaining - sz, i, acc)
                acc.pop()

        extend(size - 1, 0, [])
        forms[size] = results
    return forms


def _form_size(form: tuple) -> int:
    return 1 + sum(_form_size(child) for child in form)


def _form_to_edges(form: tuple, root: int, next_id: list[int], edges: list[tuple[int, int]]) -> None:
    for child in form:
        cid = next_id[0]
        next_id[0] += 1
        edges.append((root, cid))
        _form_to_edges(child, cid, next_id, edges)


def all_free_trees(n: int) -> list[Graph]:
    """All trees on n vertices up to isomorphism.

    Trees with a single centroid are rooted there (every child subtree is
    then strictly smaller than n/2); even-order trees may instead split at
    a central edge into an unordered pair of half-size rooted trees.
    """
    if n <= 0:
        return []
    if n == 1:
        return [Graph.from_edges(1, [])]
    forms = _rooted_forms(n)
    out: list[Graph] = []
    half = n / 2
    for form in forms[n]:
        if all(_form_size(child) < half for child in form):
            edges: list[tuple[int, int]] = []
            next_id = [1]
            _form_to_edges(form, 0, next_id, edges)
            out.append(Graph.from_edges(n, edges))
    if n % 2 == 0:
        for fa, fb in combinations_with_replacement(forms[n // 2], 2):
            edges = []
            next_id = [1]
            _form_to_edges(fa, 0, next_id, edges)
            root_b = next_id[0]
            next_id[0] += 1
            _form_to_edges(fb, root_b, next_id, edges)
            edges.append((0, root_b))
            out.append(Graph.from_edges(n, edges))
    return out
