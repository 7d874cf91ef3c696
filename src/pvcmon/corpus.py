"""Small-graph generators for the verification batteries and tests."""

from __future__ import annotations

import heapq
import random
from itertools import combinations
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


def random_bipartite_degree_dominant(rng: random.Random) -> tuple[Graph, tuple[int, ...]]:
    """Random bipartite graph of at most 14 vertices whose X side
    degree-dominates the Y side.

    Returns the graph and its X side (ids 0..|X|-1). Dense X neighborhoods
    make min-degree(X) >= max-degree(Y) hold almost always; rejected draws
    are retried.
    """
    while True:
        if rng.random() < 0.25:
            a = rng.randint(1, 5)
            return complete_bipartite(a, rng.randint(a, 13 - a)), tuple(range(a))
        ny = rng.randint(2, 9)
        nx = rng.randint(1, max(1, min(5, (7 * ny) // 10)))
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

