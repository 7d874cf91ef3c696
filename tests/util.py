"""Shared helpers for the test suite."""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from pvcmon import PvcbInstance, pvc_decide, pvc_exact, pvc_greedy_upper, pvc_rho_decide
from pvcmon.graph import Graph
from pvcmon.kernels import INF
from pvcmon.monopoly import SpreadTrace, ThresholdAssignment


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


def free_trees(n: int) -> list[Graph]:
    """All trees on n vertices up to isomorphism (networkx's enumeration)."""
    import networkx as nx  # here, so a missing networkx fails only the tests that call this

    return [Graph.from_edges(n, list(tree.edges)) for tree in nx.nonisomorphic_trees(n)]


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


def reference_vertex_subset(graph: Graph, subset) -> frozenset[int]:
    """``graph.vertex_subset`` as it was before it refused non-integer ids
    (``int`` truncates them), kept with the references below that call it."""
    out = frozenset(int(v) for v in subset)
    for v in out:
        if not (0 <= v < graph.n):
            raise ValueError(f"vertex id {v} out of range for n={graph.n}")
    return out


def reference_for_graph(graph: Graph, values) -> ThresholdAssignment:
    """``ThresholdAssignment.for_graph`` as a per-vertex loop over
    ``graph.degree``, kept as the reference the one shared threshold check
    is compared against, messages included."""
    vals = tuple(int(x) for x in values)
    if len(vals) != graph.n:
        raise ValueError(f"expected {graph.n} thresholds, got {len(vals)}")
    for v, tau in enumerate(vals):
        if tau < 0 or tau > graph.degree(v):
            raise ValueError(
                f"threshold {tau} at vertex {v} outside [0, deg={graph.degree(v)}]"
            )
    return ThresholdAssignment(vals)


def _reference_coerce_tau(graph: Graph, tau) -> ThresholdAssignment:
    if isinstance(tau, ThresholdAssignment):
        return reference_for_graph(graph, tau.values)
    return reference_for_graph(graph, tau)


def reference_is_monopoly(graph: Graph, tau, monopoly_set) -> bool:
    """The static monopoly check straight from its definition: each outside
    vertex's neighbours inside, counted against its threshold. Kept as the
    reference ``monopoly.is_monopoly`` is compared against."""
    tau = _reference_coerce_tau(graph, tau)
    inside = reference_vertex_subset(graph, monopoly_set)
    for v in range(graph.n):
        if v in inside:
            continue
        if sum(1 for u in graph.adjacency[v] if u in inside) < tau.values[v]:
            return False
    return True


def reference_monopoly_witness_tau(graph: Graph, monopoly_set) -> ThresholdAssignment:
    """The canonical static witness vertex by vertex: a member's degree, an
    outside vertex's neighbours in M. Kept as the reference
    ``monopoly.monopoly_witness_tau`` is compared against."""
    inside = reference_vertex_subset(graph, monopoly_set)
    return ThresholdAssignment(tuple(
        len(nbrs) if v in inside else sum(1 for u in nbrs if u in inside)
        for v, nbrs in enumerate(graph.adjacency)
    ))


def reference_dynamo_witness_tau(graph: Graph, seed) -> ThresholdAssignment:
    """The canonical dynamic witness in activation order: each outside vertex,
    by ascending id, counts its neighbours among the seed and the outside
    vertices before it. Kept as the reference
    ``monopoly.dynamo_witness_tau`` is compared against."""
    seed_set = reference_vertex_subset(graph, seed)
    values = [0] * graph.n
    processed = set(seed_set)
    for v in seed_set:
        values[v] = graph.degree(v)
    for v in sorted(set(range(graph.n)) - seed_set):
        values[v] = sum(1 for u in graph.adjacency[v] if u in processed)
        processed.add(v)
    return ThresholdAssignment(tuple(values))


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


def reference_minplus_lists(a, b, size) -> tuple:
    """Min-plus of two sequences of list rows, row by row, in plain Python,
    each row cut to its first ``size`` cells unless ``size`` is None.

    The list loop of ``kernels.minplus`` as it was before it became one
    pass over the cells, kept as the reference ``kernels._minplus_lists``
    is checked against.

    A one-cell row x shifts the other row by x (INF past INF - x). Longer
    rows start all INF, and each finite cell x of the shorter row lowers the
    cells it reaches to x plus the longer row; the INF start clamps every
    sum above INF.
    """
    out = []
    for ra, rb in zip(a, b):
        if len(ra) > len(rb):
            ra, rb = rb, ra
        if len(ra) == 1:
            x = ra[0]
            lim = INF - x
            out.append([x + y if y < lim else INF for y in rb[:size]])
            continue
        lb = len(rb)
        width = len(ra) + lb - 1
        row = [INF] * (width if size is None else min(width, size))
        for i, x in enumerate(ra[:size]):
            if x < INF:
                row[i:i + lb] = [p if p < (s := x + y) else s for p, y in zip(row[i:i + lb], rb)]
        out.append(row)
    return tuple(out)


def reference_cover_profile(n, edge_u, edge_v) -> np.ndarray:
    """Max coverage per subset size over all 2^n subsets.

    The plain-Python loop over every subset and edge that ``kernels`` held
    as ``_cover_profile_loop``, kept as the reference
    ``kernels.cover_profile`` is checked against.
    """
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


def reference_phi_total_profile(graph: Graph) -> list[int]:
    """Per subset size, the max total of the canonical static-monopoly witness.

    The plain-Python loop over every subset and vertex that
    ``verify._phi_total_profile`` ran before it read the subset
    enumeration kernel, kept as the reference it is checked against.
    """
    n = graph.n
    deg = graph.degrees
    adj_masks = [0] * n
    for u, v in graph.edges:
        adj_masks[u] |= 1 << v
        adj_masks[v] |= 1 << u
    best = [0] * (n + 1)
    for mask in range(1 << n):
        total = 0
        for v in range(n):
            if (mask >> v) & 1:
                total += deg[v]
            else:
                total += (adj_masks[v] & mask).bit_count()
        size = mask.bit_count()
        if total > best[size]:
            best[size] = total
    for k in range(1, n + 1):
        best[k] = max(best[k], best[k - 1])
    return best


def reference_sparse_profile(graph: Graph) -> list[dict[int, int]]:
    """Every subset's induced edge count, by subset size, each count mapped
    to its first subset in increasing bitmask order.

    The plain-Python loop over every subset and edge that
    ``monopoly.sparse_profile`` ran before it read the subset enumeration
    kernel, kept as the reference it is checked against, key order
    included.
    """
    edge_masks = [(1 << u) | (1 << v) for u, v in graph.edges]
    profile: list[dict[int, int]] = [{} for _ in range(graph.n + 1)]
    for mask in range(1 << graph.n):
        inside = sum(1 for em in edge_masks if mask & em == em)
        profile[mask.bit_count()].setdefault(inside, mask)
    return profile


def reference_max_independent_set_size(graph: Graph) -> int:
    """Brute-force independence number.

    The plain-Python loop over every subset that
    ``oracles.max_independent_set_size`` ran before it read the subset
    enumeration kernel, kept as the reference it is checked against.
    """
    adj_masks = [0] * graph.n
    for u, v in graph.edges:
        adj_masks[u] |= 1 << v
        adj_masks[v] |= 1 << u
    best = 0
    for mask in range(1 << graph.n):
        ok = True
        rest = mask
        while rest:
            v = (rest & -rest).bit_length() - 1
            rest &= rest - 1
            if adj_masks[v] & mask:
                ok = False
                break
        if ok:
            best = max(best, mask.bit_count())
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
