"""Shared helpers for the test suite."""

from __future__ import annotations

from pvcmon.graph import Graph


def relabelled_union(parts, rng) -> Graph:
    """Disjoint union of ``parts`` under a random relabelling of its vertices."""
    n = sum(g.n for g in parts)
    label = list(range(n))
    rng.shuffle(label)
    edges = []
    offset = 0
    for g in parts:
        edges.extend(tuple(sorted((label[u + offset], label[v + offset]))) for u, v in g.edges)
        offset += g.n
    return Graph.from_edges(n, edges)


def is_chordal(graph: Graph) -> bool:
    """Maximum cardinality search + perfect elimination ordering check."""
    n = graph.n
    weight = [0] * n
    removed = [False] * n
    order: list[int] = []
    for _ in range(n):
        v = max(
            (x for x in range(n) if not removed[x]),
            key=lambda x: (weight[x], -x),
        )
        removed[v] = True
        order.append(v)
        for u in graph.adjacency[v]:
            if not removed[u]:
                weight[u] += 1
    pos = {v: i for i, v in enumerate(order)}
    for v in order:
        earlier = [u for u in graph.adjacency[v] if pos[u] < pos[v]]
        if not earlier:
            continue
        anchor = max(earlier, key=lambda u: pos[u])
        if not (set(earlier) - {anchor}) <= graph.adjacency[anchor]:
            return False
    return True
