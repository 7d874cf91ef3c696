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


def reference_bb_min_cover(n, indptr, nbrs, target, incumbent):
    """Smallest vertex set covering >= target edges, searched below an incumbent.

    The branch-and-bound search as it was before it tested children before
    building them and before the forced-neighbour bound, kept as the
    reference ``kernels.bb_min_cover``'s witnesses are checked against.

    The simple graph comes as CSR arrays (``indptr``, ``nbrs``). ``incumbent``
    is a vertex list covering >= target edges. Returns the smallest set found
    as a vertex list, or the incumbent when nothing smaller exists.

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
    return best


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
