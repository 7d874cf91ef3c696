"""Threshold spread processes and smallest static/dynamic monopolies.

A threshold assignment gives every vertex an activation requirement between
0 and its degree. A static monopoly dominates every outside vertex in one
shot; a dynamic monopoly is a seed whose deterministic round-by-round
closure activates the whole graph. ``smon`` and ``sdyn`` minimize the seed
size over all assignments with a prescribed average, by reduction to
partial vertex cover, solved by ``pvc.solve_pvc`` (so forests and
degree-dominant bipartite graphs get the polynomial solvers). The
``*_decide`` forms, at average k times the edge density, are the
rho-fraction question ``pvc.pvc_rho_decide`` at rho = k/2 (static) and
rho = k - 1 (dynamic), as in the paper's hardness reduction.
``sdyn_via_subgraph`` is the independent sparse-induced-subgraph route
used to cross-check ``sdyn``; ``sparse_profile`` is its enumeration, a
fold over ``kernels.enumerate_subsets`` (the theorems battery runs it in
its one enumeration a graph), kept for callers that ask about several
averages of one graph.

The witness layer checks an assignment once, against ``graph.degrees``
(``_checked_thresholds``, which ``ThresholdAssignment.for_graph`` and every
checker share), then makes one pass over the neighbour tuples of the
members: the canonical witnesses count from the members' neighbours, and
``is_monopoly`` takes one off each threshold for each edge from a member.
``simulate_spread`` and ``is_dynamic_monopoly`` consume the one closure
loop, the round generator ``_rounds``: the trace freezes each round's
layer, the check only counts them.
"""

from __future__ import annotations

import operator
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, NamedTuple, Optional

import numpy as np

from .errors import InfeasibleTargetError
from .graph import Graph, Rational, _coerce_rational, _fraction_between, vertex_subset
from .kernels import enumerate_subsets
from .pvc import pvc_rho_decide, solve_pvc

# Largest graph sdyn_via_subgraph enumerates unless told otherwise (2^14 subsets).
ORACLE_GUARD_DEFAULT = 14


@dataclass(frozen=True)
class ThresholdAssignment:
    """Per-vertex activation thresholds, each between 0 and the vertex degree."""

    values: tuple[int, ...]

    @staticmethod
    def for_graph(graph: Graph, values: Iterable[int]) -> "ThresholdAssignment":
        return ThresholdAssignment(_checked_thresholds(graph, values))

    @property
    def total(self) -> int:
        return sum(self.values)

    @property
    def average(self) -> Fraction:
        if not self.values:
            raise ValueError("empty assignment has no average")
        return Fraction(self.total, len(self.values))


@dataclass(frozen=True)
class SpreadTrace:
    """Round partition of the deterministic activation process.

    ``layers[0]`` is the seed; layer i >= 1 holds every vertex that first
    meets its threshold after rounds 0..i-1. The trace stops at the first
    empty round.
    """

    layers: tuple[frozenset[int], ...]
    activated_all: bool

    @property
    def rounds(self) -> int:
        return len(self.layers) - 1

    def activated(self) -> frozenset[int]:
        out: set[int] = set()
        for layer in self.layers:
            out |= layer
        return frozenset(out)


@dataclass(frozen=True)
class SdynResult:
    """Smallest dynamic monopoly: seed and its certifying thresholds."""

    size: int
    seed: frozenset[int]
    witness_tau: ThresholdAssignment


class SmonResult(NamedTuple):
    size: int
    monopoly: frozenset[int]
    tau: ThresholdAssignment


def _checked_thresholds(graph: Graph, values: Iterable[int]) -> tuple[int, ...]:
    """The thresholds as a tuple, one a vertex, each in [0, degree].

    A value that is not an integer (a float, a string) raises TypeError
    rather than being truncated; a wrong count, or the first value out of
    its range, raises ValueError.
    """
    vals = tuple(map(operator.index, values))
    if len(vals) != graph.n:
        raise ValueError(f"expected {graph.n} thresholds, got {len(vals)}")
    for v, (tau, deg) in enumerate(zip(vals, graph.degrees)):
        if not 0 <= tau <= deg:
            raise ValueError(f"threshold {tau} at vertex {v} outside [0, deg={deg}]")
    return vals


def _coerce_tau(graph: Graph, tau) -> tuple[int, ...]:
    # an assignment is checked again: it may have been built for another graph
    return _checked_thresholds(graph, tau.values if isinstance(tau, ThresholdAssignment) else tau)


def _required_total(graph: Graph, t: Rational) -> int:
    # ceil(n*t), the least total of an assignment with average >= t = a/b,
    # in integers; no assignment exceeds the degree sum 2m
    t = _coerce_rational(t)
    a, b = t.numerator, t.denominator
    if a < 0:
        raise ValueError(f"average threshold must be nonnegative, got {t}")
    if graph.n * a > 2 * graph.m * b:
        raise InfeasibleTargetError(
            f"no valid assignment: required total {graph.n * t} exceeds degree sum {2 * graph.m}"
        )
    return -(-graph.n * a // b)


def _static_target(total: int) -> int:
    # Smon_t = P_{ceil(total/2)}: the edges a smallest static monopoly at this total covers
    return (total + 1) // 2


def _dynamic_target(graph: Graph, total: int) -> int:
    # Sdyn_t = P_{total - m}, no edge at all whenever total <= m
    return max(0, total - graph.m)


def _rounds(graph: Graph, tau: tuple[int, ...], seed: frozenset[int]) -> Iterator[list[int]]:
    """The threshold process's closure loop: each round's new layer, as a
    list of distinct vertices, until a round adds nothing.

    ``lack[v]`` counts the active neighbours v still lacks; a decrement to 0
    puts v in the next layer, so the seed starts at -1 and round 1 adds
    those of threshold 0. Each round looks only at the neighbours of the
    last layer, so a whole run is linear in the graph.
    """
    adjacency = graph.adjacency
    lack = list(tau)
    for v in seed:
        lack[v] = -1
    layer, nxt = seed, [v for v, need in enumerate(lack) if need == 0]
    while True:
        for v in layer:
            for u in adjacency[v]:
                lack[u] -= 1
                if not lack[u]:
                    nxt.append(u)
        if not nxt:
            return
        yield nxt
        layer, nxt = nxt, []


def simulate_spread(graph: Graph, tau, seed: Iterable[int]) -> SpreadTrace:
    """Run the deterministic threshold process from a seed set.

    Each round activates every inactive vertex with at least its threshold
    many active neighbors; the process stops when a round adds nothing.
    """
    tau = _coerce_tau(graph, tau)
    layer = vertex_subset(graph, seed)
    layers = [layer, *map(frozenset, _rounds(graph, tau, layer))]
    return SpreadTrace(tuple(layers), sum(map(len, layers)) == graph.n)


def is_dynamic_monopoly(graph: Graph, tau, seed: Iterable[int]) -> bool:
    """True iff the closure of the seed under the threshold rule is all of V."""
    tau = _coerce_tau(graph, tau)
    seed = vertex_subset(graph, seed)
    return len(seed) + sum(map(len, _rounds(graph, tau, seed))) == graph.n


def is_monopoly(graph: Graph, tau, monopoly_set: Iterable[int]) -> bool:
    """True iff every outside vertex has at least its threshold many neighbors inside.

    Each vertex's deficit starts at its threshold and loses one for each
    neighbour inside; a member owes nothing.
    """
    deficit = list(_coerce_tau(graph, tau))
    adjacency = graph.adjacency
    for v in vertex_subset(graph, monopoly_set):
        deficit[v] = 0
        for u in adjacency[v]:
            deficit[u] -= 1
    return max(deficit, default=0) <= 0


def monopoly_witness_tau(graph: Graph, monopoly_set: Iterable[int]) -> ThresholdAssignment:
    """Canonical thresholds certifying M as a static monopoly.

    Outside vertices get exactly their neighbor count into M, members get
    their full degree. The total always equals twice the coverage of M.
    Each value lies in [0, deg] by construction, so it is not checked again.
    """
    inside = vertex_subset(graph, monopoly_set)
    adjacency = graph.adjacency
    values = [0] * graph.n
    for v in inside:
        for u in adjacency[v]:
            values[u] += 1
    for v in inside:
        values[v] = len(adjacency[v])
    return ThresholdAssignment(tuple(values))


def dynamo_witness_tau(graph: Graph, seed: Iterable[int]) -> ThresholdAssignment:
    """Canonical thresholds certifying D as a dynamic monopoly.

    Vertices outside D are ordered by ascending id; each one's threshold is
    its neighbor count into D plus the earlier outside vertices, so the
    closure activates them in that order. Members get their full degree.
    The total always equals m plus the coverage of D. Each value lies in
    [0, deg] by construction, so it is not checked again.
    """
    seed_set = vertex_subset(graph, seed)
    adjacency = graph.adjacency
    # an outside vertex's threshold counts its lower-id neighbours (seeds and
    # earlier outside vertices alike) plus its higher-id seed neighbours
    values = list(map(bisect_left, adjacency, range(graph.n)))
    for v in seed_set:
        for u in adjacency[v]:
            if u > v:
                break
            values[u] += 1
    for v in seed_set:
        values[v] = len(adjacency[v])
    return ThresholdAssignment(tuple(values))


def smon(graph: Graph, t: Rational) -> SmonResult:
    """Smallest static monopoly over all assignments with average >= t.

    Equals the minimum partial cover of ceil(n*t/2) edges; the returned
    monopoly carries its canonical witness assignment.
    """
    res = solve_pvc(graph, _static_target(_required_total(graph, t)))
    tau = monopoly_witness_tau(graph, res.witness)
    return SmonResult(res.size, res.witness, tau)


def sdyn(graph: Graph, t: Rational) -> SdynResult:
    """Smallest dynamic monopoly over all assignments with average >= t.

    Equals the minimum partial cover of ceil(n*t) - m edges (zero whenever
    ceil(n*t) <= m); the returned seed carries its canonical witness
    assignment.
    """
    res = solve_pvc(graph, _dynamic_target(graph, _required_total(graph, t)))
    tau = dynamo_witness_tau(graph, res.witness)
    return SdynResult(res.size, res.witness, tau)


def sparse_profile(graph: Graph) -> list[dict[int, int]]:
    """Every subset's induced edge count, by subset size.

    Entry s maps each number of edges that some s-subset induces to the
    first such subset in increasing bitmask order, in the order those come.
    Enumerates all 2^n subsets (``kernels.enumerate_subsets``, so n <=
    ``kernels.SUBSET_GUARD``); independent of the cover solvers.
    """
    return enumerate_subsets(graph.n, _sparse_fold(graph))[0]


def _sparse_fold(graph: Graph) -> tuple:
    """The enumeration fold of ``sparse_profile``: edge (u, v) is induced
    by a subset that holds ``1 << u | 1 << v``."""
    edges = np.array([(1 << u) | (1 << v) for u, v in graph.edges], dtype=np.int64)[:, None]
    profile: list[dict[int, int]] = [{} for _ in range(graph.n + 1)]

    def step(masks, sizes):
        inside = ((edges & masks) == edges).sum(axis=0)
        # the first subset of each (size, inside) in the chunk, in mask order
        _, at = np.unique(sizes * (graph.m + 1) + inside, return_index=True)
        at.sort()
        for s, k, mask in zip(sizes[at].tolist(), inside[at].tolist(), masks[at].tolist()):
            profile[s].setdefault(k, mask)
    return step, lambda: profile


def sdyn_via_subgraph(
    graph: Graph,
    t: Rational,
    max_n: int = ORACLE_GUARD_DEFAULT,
    profile: Optional[list[dict[int, int]]] = None,
) -> tuple[int, frozenset[int]]:
    """Independent route to the smallest dynamic monopoly size.

    Exhaustively maximizes |W| over vertex subsets whose induced subgraph
    keeps at most 2m - ceil(n*t) edges; the answer is n - max|W| and the
    returned witness is the first maximizer in bitmask order (its
    complement is an optimal seed). Enumeration is guarded to small n;
    a caller that already holds ``sparse_profile(graph)`` passes it as
    ``profile`` and skips the enumeration.
    """
    total = _required_total(graph, t)
    if profile is None:
        if graph.n > max_n:
            raise ValueError(f"enumeration guard: n={graph.n} > {max_n}")
        profile = sparse_profile(graph)
    budget = 2 * graph.m - total
    # the empty subset induces no edge, so the scan down from n stops
    best_size = next(s for s in range(graph.n, -1, -1) if min(profile[s]) <= budget)
    best_mask = min(mask for inside, mask in profile[best_size].items() if inside <= budget)
    witness = frozenset(v for v in range(graph.n) if (best_mask >> v) & 1)
    return graph.n - best_size, witness


def _decide_factor(graph: Graph, k_factor: Rational, low: int) -> Fraction:
    # k = a/b strictly between low and 2, on a graph with an edge density
    k_factor = _fraction_between(k_factor, low, 2, "k factor")
    if graph.n == 0:
        raise ValueError("edge density undefined for the empty graph")
    return k_factor


def smon_decide(graph: Graph, d: int, k_factor: Rational) -> bool:
    """Is there an assignment with total ceil(n*k*density) admitting a
    static monopoly of size at most d? Valid for 0 < k < 2.

    With density m/n, that is the rho-fraction question at rho = k/2:
    Smon at total ceil(k*m) is P_{ceil(k*m/2)}.
    """
    return pvc_rho_decide(graph, d, _decide_factor(graph, k_factor, 0) / 2)


def sdyn_decide(graph: Graph, d: int, k_factor: Rational) -> bool:
    """Is there an assignment with total ceil(n*k*density) admitting a
    dynamic monopoly of size at most d? Valid for 1 < k < 2.

    With density m/n, that is the rho-fraction question at rho = k - 1:
    Sdyn at total ceil(k*m) is P_{ceil(k*m) - m} = P_{ceil((k-1)*m)}.
    """
    return pvc_rho_decide(graph, d, _decide_factor(graph, k_factor, 1) - 1)
