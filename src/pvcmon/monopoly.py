"""Threshold spread processes and smallest static/dynamic monopolies.

A threshold assignment gives every vertex an activation requirement between
0 and its degree. A static monopoly dominates every outside vertex in one
shot; a dynamic monopoly is a seed whose deterministic round-by-round
closure activates the whole graph. ``smon`` and ``sdyn`` minimize the seed
size over all assignments with a prescribed average, by reduction to
partial vertex cover, solved by ``pvc.solve_pvc`` (so forests and
degree-dominant bipartite graphs get the polynomial solvers); the
``*_decide`` forms ask ``smon``/``sdyn`` at the average their total fixes
and compare the size with the bound. ``sdyn_via_subgraph``
is the independent sparse-induced-subgraph route used to cross-check
``sdyn``; ``sparse_profile`` is its enumeration, kept for callers that ask
about several averages of one graph.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, NamedTuple, Optional

from .errors import InfeasibleTargetError
from .graph import Graph, Rational, _coerce_rational, coverage, edge_density, vertex_subset
from .pvc import solve_pvc


@dataclass(frozen=True)
class ThresholdAssignment:
    """Per-vertex activation thresholds, each between 0 and the vertex degree."""

    values: tuple[int, ...]

    @staticmethod
    def for_graph(graph: Graph, values: Iterable[int]) -> "ThresholdAssignment":
        vals = tuple(int(x) for x in values)
        if len(vals) != graph.n:
            raise ValueError(f"expected {graph.n} thresholds, got {len(vals)}")
        for v, tau in enumerate(vals):
            if tau < 0 or tau > graph.degree(v):
                raise ValueError(
                    f"threshold {tau} at vertex {v} outside [0, deg={graph.degree(v)}]"
                )
        return ThresholdAssignment(vals)

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
    """Smallest dynamic monopoly: seed, its certifying thresholds, optional
    sparse-subgraph witness from the enumeration route."""

    size: int
    seed: frozenset[int]
    witness_tau: ThresholdAssignment
    sparse_subgraph_witness: Optional[frozenset[int]] = None


class SmonResult(NamedTuple):
    size: int
    monopoly: frozenset[int]
    tau: ThresholdAssignment


def _coerce_tau(graph: Graph, tau) -> ThresholdAssignment:
    if isinstance(tau, ThresholdAssignment):
        return ThresholdAssignment.for_graph(graph, tau.values)
    return ThresholdAssignment.for_graph(graph, tau)


def _require_feasible(graph: Graph, nt: Fraction) -> None:
    if nt > 2 * graph.m:
        raise InfeasibleTargetError(
            f"no valid assignment: required total {nt} exceeds degree sum {2 * graph.m}"
        )


def simulate_spread(graph: Graph, tau, seed: Iterable[int]) -> SpreadTrace:
    """Run the deterministic threshold process from a seed set.

    Each round activates every inactive vertex with at least its threshold
    many active neighbors; the process stops when a round adds nothing.
    """
    tau = _coerce_tau(graph, tau)
    seed_set = vertex_subset(graph, seed)
    active = set(seed_set)
    layers = [frozenset(seed_set)]
    remaining = set(range(graph.n)) - active
    while True:
        nxt = {
            v
            for v in remaining
            if sum(1 for u in graph.adjacency[v] if u in active) >= tau.values[v]
        }
        if not nxt:
            break
        layers.append(frozenset(nxt))
        active |= nxt
        remaining -= nxt
    return SpreadTrace(tuple(layers), len(active) == graph.n)


def is_dynamic_monopoly(graph: Graph, tau, seed: Iterable[int]) -> bool:
    """True iff the closure of the seed under the threshold rule is all of V."""
    return simulate_spread(graph, tau, seed).activated_all


def is_monopoly(graph: Graph, tau, monopoly_set: Iterable[int]) -> bool:
    """True iff every outside vertex has at least its threshold many neighbors inside."""
    tau = _coerce_tau(graph, tau)
    inside = vertex_subset(graph, monopoly_set)
    for v in range(graph.n):
        if v in inside:
            continue
        if sum(1 for u in graph.adjacency[v] if u in inside) < tau.values[v]:
            return False
    return True


def monopoly_witness_tau(graph: Graph, monopoly_set: Iterable[int]) -> ThresholdAssignment:
    """Canonical thresholds certifying M as a static monopoly.

    Outside vertices get exactly their neighbor count into M, members get
    their full degree. The total always equals twice the coverage of M.
    """
    inside = vertex_subset(graph, monopoly_set)
    values = []
    for v in range(graph.n):
        if v in inside:
            values.append(graph.degree(v))
        else:
            values.append(sum(1 for u in graph.adjacency[v] if u in inside))
    return ThresholdAssignment.for_graph(graph, values)


def dynamo_witness_tau(graph: Graph, seed: Iterable[int]) -> ThresholdAssignment:
    """Canonical thresholds certifying D as a dynamic monopoly.

    Vertices outside D are ordered by ascending id; each one's threshold is
    its neighbor count into D plus the earlier outside vertices, so the
    closure activates them in that order. Members get their full degree.
    The total always equals m plus the coverage of D.
    """
    seed_set = vertex_subset(graph, seed)
    values = [0] * graph.n
    processed = set(seed_set)
    for v in seed_set:
        values[v] = graph.degree(v)
    for v in sorted(set(range(graph.n)) - seed_set):
        values[v] = sum(1 for u in graph.adjacency[v] if u in processed)
        processed.add(v)
    return ThresholdAssignment.for_graph(graph, values)


def smon(graph: Graph, t: Rational) -> SmonResult:
    """Smallest static monopoly over all assignments with average >= t.

    Equals the minimum partial cover of ceil(n*t/2) edges; the returned
    monopoly carries its canonical witness assignment.
    """
    t = _coerce_rational(t)
    if t < 0:
        raise ValueError(f"average threshold must be nonnegative, got {t}")
    nt = graph.n * t
    _require_feasible(graph, nt)
    target = max(0, math.ceil(nt / 2))
    res = solve_pvc(graph, target)
    tau = monopoly_witness_tau(graph, res.witness)
    return SmonResult(res.size, res.witness, tau)


def sdyn(graph: Graph, t: Rational) -> SdynResult:
    """Smallest dynamic monopoly over all assignments with average >= t.

    Equals the minimum partial cover of ceil(n*t) - m edges (zero whenever
    ceil(n*t) <= m); the returned seed carries its canonical witness
    assignment.
    """
    t = _coerce_rational(t)
    if t < 0:
        raise ValueError(f"average threshold must be nonnegative, got {t}")
    nt = graph.n * t
    _require_feasible(graph, nt)
    target = max(0, math.ceil(nt) - graph.m)
    res = solve_pvc(graph, target)
    tau = dynamo_witness_tau(graph, res.witness)
    return SdynResult(res.size, res.witness, tau)


def sparse_profile(graph: Graph) -> list[dict[int, int]]:
    """Every subset's induced edge count, by subset size.

    Entry s maps each number of edges that some s-subset induces to the
    first such subset in increasing bitmask order. Enumerates all 2^n
    subsets; independent of the cover solvers.
    """
    edge_masks = [(1 << u) | (1 << v) for u, v in graph.edges]
    profile: list[dict[int, int]] = [{} for _ in range(graph.n + 1)]
    for mask in range(1 << graph.n):
        inside = sum(1 for em in edge_masks if mask & em == em)
        profile[mask.bit_count()].setdefault(inside, mask)
    return profile


def sdyn_via_subgraph(
    graph: Graph,
    t: Rational,
    max_n: int = 14,
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
    t = _coerce_rational(t)
    if t < 0:
        raise ValueError(f"average threshold must be nonnegative, got {t}")
    nt = graph.n * t
    _require_feasible(graph, nt)
    if profile is None:
        if graph.n > max_n:
            raise ValueError(f"enumeration guard: n={graph.n} > {max_n}")
        profile = sparse_profile(graph)
    budget = 2 * graph.m - math.ceil(nt)
    best_size = max(s for s, row in enumerate(profile) if min(row) <= budget)
    best_mask = min(mask for inside, mask in profile[best_size].items() if inside <= budget)
    witness = frozenset(v for v in range(graph.n) if (best_mask >> v) & 1)
    return graph.n - best_size, witness


def _decide_average(graph: Graph, d: int, k_factor: Fraction) -> Fraction:
    # the average threshold whose total is ceil(n*k*density)
    if d < 0:
        raise ValueError(f"size bound must be nonnegative, got {d}")
    return Fraction(math.ceil(graph.n * k_factor * edge_density(graph)), graph.n)


def smon_decide(graph: Graph, d: int, k_factor: Rational) -> bool:
    """Is there an assignment with total ceil(n*k*density) admitting a
    static monopoly of size at most d? Valid for 0 < k < 2."""
    k_factor = _coerce_rational(k_factor)
    if not (0 < k_factor < 2):
        raise ValueError(f"k factor must lie strictly between 0 and 2, got {k_factor}")
    return smon(graph, _decide_average(graph, d, k_factor)).size <= d


def sdyn_decide(graph: Graph, d: int, k_factor: Rational) -> bool:
    """Is there an assignment with total ceil(n*k*density) admitting a
    dynamic monopoly of size at most d? Valid for 1 < k < 2."""
    k_factor = _coerce_rational(k_factor)
    if not (1 < k_factor < 2):
        raise ValueError(f"k factor must lie strictly between 1 and 2, got {k_factor}")
    return sdyn(graph, _decide_average(graph, d, k_factor)).size <= d
