"""Shared helpers for the test suite."""

from __future__ import annotations

from fractions import Fraction

from pvcmon import PvcbInstance, pvc_decide, pvc_exact, pvc_greedy_upper, pvc_rho_decide
from pvcmon.graph import Graph
from pvcmon.monopoly import SpreadTrace


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


def fresh_copy(graph: Graph) -> Graph:
    """An equal graph object that shares no solver state with ``graph``."""
    return Graph.from_edges(graph.n, graph.edges)


def solver_answers(queries, graph_for) -> list:
    """Answers to (g, k, t) queries, each call asked of ``graph_for(g)``: the
    greedy's, and for k not None also pvc_exact's, pvc_decide's and
    pvc_rho_decide's at a rho derived from t."""
    out = []
    for g, k, t in queries:
        greedy = pvc_greedy_upper(graph_for(g), t)
        out.append((greedy.size, greedy.witness, greedy.achieved_coverage))
        if k is not None:
            exact = pvc_exact(graph_for(g), t)
            out.append((
                exact.size, exact.witness, exact.achieved_coverage,
                pvc_decide(PvcbInstance(graph_for(g), k, t)),
                pvc_rho_decide(graph_for(g), k, Fraction(max(t, 1), g.m + 2)),
            ))
    return out


def reference_spread(graph: Graph, tau, seed) -> SpreadTrace:
    """The threshold process straight from its definition: each round scans
    every inactive vertex's neighbours (quadratic on a chain), kept as the
    reference ``simulate_spread`` is checked against."""
    active = set(seed)
    layers = [frozenset(active)]
    remaining = set(range(graph.n)) - active
    while True:
        nxt = {
            v
            for v in remaining
            if sum(1 for u in graph.adjacency[v] if u in active) >= tau[v]
        }
        if not nxt:
            break
        layers.append(frozenset(nxt))
        active |= nxt
        remaining -= nxt
    return SpreadTrace(tuple(layers), len(active) == graph.n)


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
        if not (set(earlier) - {anchor}) <= set(graph.adjacency[anchor]):
            return False
    return True
