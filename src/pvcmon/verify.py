"""Exhaustive desk-scale verification batteries.

Each battery sweeps a corpus of small instances and records every
counterexample; an empty failure list is the pass condition. The same
functions back the CLI ``verify`` subcommand and the acceptance tests.

A battery pays for its decisions and little else. Its loops bound every
budget and target, so the lemma batteries decide through ``pvc._decide``
without building or range-checking instance objects; targets come from
averages in integer arithmetic; ``lemma2`` builds each (graph, rho)'s
gadgets from one ``reductions._GadgetFamily``; and a record is built only
for an instance that fails or is flagged.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterator

import numpy as np

from . import kernels, oracles
from .corpus import all_labeled_graphs, random_graph
from .graph import Graph, coverage
from .monopoly import (
    _sparse_fold,
    dynamo_witness_tau,
    is_dynamic_monopoly,
    is_monopoly,
    monopoly_witness_tau,
    sdyn,
    sdyn_via_subgraph,
    smon,
)
from .pvc import _decide, pvc_rho_decide
from .reductions import _GadgetFamily, _lemma1_holds, pendant_triple_augment

DEFAULT_RHOS = (Fraction(1, 3), Fraction(1, 2), Fraction(2, 3))
MAX_GRAPHS = 100_000  # of the theorems battery; 100,000 take ~35 s on 2 vCPUs


@dataclass
class BatteryReport:
    suite: str
    instances: int = 0
    failures: list[dict] = field(default_factory=list)
    flagged: list[dict] = field(default_factory=list)
    # wall time of the whole battery, set by run_suite
    elapsed_seconds: float | None = None

    @property
    def passed(self) -> bool:
        return not self.failures

    def to_payload(self) -> dict:
        payload = {
            "suite": self.suite,
            "instances": self.instances,
            "failures": self.failures,
            "flagged": self.flagged,
            "passed": self.passed,
        }
        if self.elapsed_seconds is not None:
            payload["elapsed_seconds"] = round(self.elapsed_seconds, 6)
            payload["instances_per_second"] = round(self.instances / self.elapsed_seconds, 1)
        return payload


def _graph_key(graph: Graph) -> dict:
    return {"n": graph.n, "edges": [list(e) for e in graph.edges]}


def lemma1_battery(max_n: int = 5) -> BatteryReport:
    """Pendant augmentation equivalence over every labeled graph with n <= max_n."""
    report = BatteryReport("lemma1")
    for n in range(1, max_n + 1):
        for graph in all_labeled_graphs(n):
            augmented, _ = pendant_triple_augment(graph)
            for k in range(n + 1):
                for t in range(graph.m + 1):
                    report.instances += 1
                    if not _lemma1_holds(graph, augmented, k, t):
                        report.failures.append({**_graph_key(graph), "k": k, "t": t})
    return report


def lemma2_battery(max_n: int = 4, rhos=DEFAULT_RHOS) -> BatteryReport:
    """Star/path gadget equivalence plus structural identities, exhaustively.

    Instances with k = n are checked like the rest but also listed under
    ``flagged`` for separate inspection. The gadget depends on (k, t) only
    through its path length s, so instances with one s share one gadget
    object, and with it the solver state and answers kept on its graph; the
    gadgets of one (graph, rho) come from one ``_GadgetFamily``, which lays
    down their common part once. A record is built only for an instance
    that fails or is flagged.
    """
    report = BatteryReport("lemma2")
    for n in range(1, max_n + 1):
        for graph in all_labeled_graphs(n):
            augmented, _ = pendant_triple_augment(graph)
            # the left side <G', k, t + 3k> does not depend on rho; k <= n and
            # t + 3k <= m + 3n make it a valid instance without checks
            left = {
                (k, t): _decide(augmented, t + 3 * k, k)
                for k in range(n + 1)
                for t in range(graph.m + 1)
            }
            for rho in rhos:
                family = _GadgetFamily(graph, rho)
                gadgets = {}  # path length s -> the gadget
                for k in range(n + 1):
                    for t in range(graph.m + 1):
                        report.instances += 1
                        s = family.path_length(k, t)
                        inst = gadgets.get(s)
                        if inst is None:
                            inst = gadgets[s] = family(k, t)
                        structural_ok = (
                            inst.s >= 1
                            and inst.graph.n == 4 * n + inst.r + 1 + inst.s
                            and inst.graph.m == graph.m + 3 * n + inst.r + inst.s + 1
                        )
                        equivalent = left[k, t] == pvc_rho_decide(inst.graph, k + 1, inst.rho)
                        ok = structural_ok and equivalent
                        if not ok or k == n:
                            record = {**_graph_key(graph), "k": k, "t": t, "rho": str(family.rho)}
                            if not ok:
                                report.failures.append(
                                    {**record, "structural_ok": structural_ok, "equivalent": equivalent}
                                )
                            if k == n:
                                report.flagged.append(record)
    return report


def _feasible_averages(graph: Graph) -> list[Fraction]:
    """Every average p/q (p <= 2m, q in 1, 2, 3) with (p/q) n <= 2m, sorted.

    These are exactly the a/6 with a >= 2 a multiple of 2 or 3 and
    a n <= 12m (then p/q <= 2m/n keeps p <= 2m), so the list is built in
    integers, already in order.
    """
    top = 12 * graph.m // max(graph.n, 1)
    return [Fraction(a, 6) for a in range(2, top + 1) if a % 2 == 0 or a % 3 == 0]


def _phi_total_fold(graph: Graph) -> tuple:
    """The enumeration fold of ``_phi_total_profile``: a subset S's witness
    total is deg v summed over v in S plus |N(v) & S| summed over v outside
    S, from the degrees and the neighbour bitmasks."""
    nbrs = np.array([sum(1 << w for w in a) for a in graph.adjacency], dtype=np.int64)[:, None]
    deg = np.array(graph.degrees, dtype=np.int64)[:, None]
    bit = np.left_shift(1, np.arange(graph.n, dtype=np.int64))[:, None]
    return kernels.size_max(
        graph.n, lambda masks: np.where(bit & masks, deg, np.bitwise_count(nbrs & masks)).sum(axis=0)
    )


def _phi_total_profile(graph: Graph) -> list[int]:
    """Per subset size, the max total of the canonical static-monopoly witness.

    Computed directly from degrees over every subset; independent of the
    cover solvers.
    """
    return kernels.enumerate_subsets(graph.n, _phi_total_fold(graph))[0].tolist()


def _theorem_profiles(graph: Graph) -> tuple[list[int], list[int], list[dict[int, int]]]:
    """A graph's cover, witness-total and sparse profiles from one enumeration."""
    cover, phi, sparse = kernels.enumerate_subsets(
        graph.n,
        kernels.cover_fold(graph.n, *oracles._edge_arrays(graph)),
        _phi_total_fold(graph),
        _sparse_fold(graph),
    )
    return cover.tolist(), phi.tolist(), sparse


def _required_totals(n: int, t: Fraction) -> tuple[int, int]:
    """ceil(n t), the least total of an assignment with average t, and
    ceil(ceil(n t) / 2), the edges a static monopoly at that total covers,
    in integers from t = a/b."""
    nt_ceil = -(-n * t.numerator // t.denominator)
    return nt_ceil, (nt_ceil + 1) // 2


def theorem_corpus(n_graphs: int = 500, max_n: int = 8, seed: int = 20240817) -> Iterator[Graph]:
    """The theorems battery's seeded G(n, p) graphs, drawn one at a time."""
    rng = random.Random(seed)
    for _ in range(n_graphs):
        n = rng.randint(1, max_n)
        p = rng.choice((0.2, 0.35, 0.5, 0.65, 0.8))
        yield random_graph(n, p, rng)

def theorem_battery(n_graphs: int = 500, max_n: int = 8, seed: int = 20240817) -> BatteryReport:
    """Static and dynamic monopoly identities on a random corpus.

    For every feasible average t the computed sizes must match both
    subset-enumeration routes (witness-total maximization for the static
    case, sparse induced subgraph for the dynamic case), and every witness
    must re-verify through the definitional checkers. The corpus is drawn
    one graph at a time, so a graph and the answers kept on it are freed
    once its averages are checked.
    """
    report = BatteryReport("theorems")
    for graph in theorem_corpus(n_graphs, max_n, seed):
        cover_prof, phi_prof, sparse_prof = _theorem_profiles(graph)
        for t in _feasible_averages(graph):
            report.instances += 1
            nt_ceil, cover_target = _required_totals(graph.n, t)
            problems = []

            mon = smon(graph, t)
            expect_phi = next(k for k, tot in enumerate(phi_prof) if tot >= nt_ceil)
            expect_cov = next(k for k, cov in enumerate(cover_prof) if cov >= cover_target)
            if mon.size != expect_phi:
                problems.append(f"static size {mon.size} != witness-total optimum {expect_phi}")
            if mon.size != expect_cov:
                problems.append(f"static size {mon.size} != cover optimum {expect_cov}")
            if not is_monopoly(graph, mon.tau, mon.monopoly):
                problems.append("static witness fails the definitional check")
            if mon.tau.total < nt_ceil:
                problems.append("static witness total below the required total")

            dyn = sdyn(graph, t)
            oracle_size, _ = sdyn_via_subgraph(graph, t, profile=sparse_prof)
            if dyn.size != oracle_size:
                problems.append(f"dynamic size {dyn.size} != subgraph oracle {oracle_size}")
            if not is_dynamic_monopoly(graph, dyn.witness_tau, dyn.seed):
                problems.append("dynamic witness fails the simulation check")
            if dyn.witness_tau.total < nt_ceil:
                problems.append("dynamic witness total below the required total")

            if problems:
                report.failures.append({**_graph_key(graph), "t": str(t), "problems": problems})
    return report


def witness_identity_battery(n_graphs: int = 60, max_n: int = 8, seed: int = 7) -> BatteryReport:
    """Canonical witness totals against coverage, over every subset."""
    report = BatteryReport("witness-identities")
    rng = random.Random(seed)
    for _ in range(n_graphs):
        n = rng.randint(1, max_n)
        graph = random_graph(n, rng.choice((0.25, 0.5, 0.75)), rng)
        for mask in range(1 << graph.n):
            subset = frozenset(v for v in range(graph.n) if (mask >> v) & 1)
            report.instances += 1
            cov = coverage(graph, subset)
            phi = monopoly_witness_tau(graph, subset)
            psi = dynamo_witness_tau(graph, subset)
            ok = (
                phi.total == 2 * cov
                and psi.total == graph.m + cov
                and is_monopoly(graph, phi, subset)
                and is_dynamic_monopoly(graph, psi, subset)
            )
            if not ok:
                report.failures.append({**_graph_key(graph), "subset": sorted(subset)})
    return report


def _bounded(suite: str, size_bound: int | None, default: int, cap: int, clamp: bool) -> int:
    # each step of the size bound multiplies an exhaustive battery's work, so
    # one past the cap already runs for hours
    if size_bound is None:
        return default
    bound = min(size_bound, default) if clamp else size_bound
    if bound > cap:
        raise ValueError(f"the {suite} suite is exhaustive; size bound must be <= {cap}")
    return bound


def _timed(battery, **kwargs) -> BatteryReport:
    started = time.perf_counter()
    report = battery(**kwargs)
    report.elapsed_seconds = time.perf_counter() - started
    return report


def run_suite(suite: str, size_bound: int | None = None, n_graphs: int | None = None) -> list[BatteryReport]:
    """Run one named battery, or 'all' of them at their standard bounds.

    For a specific suite the size bound is taken as given, up to a hard cap
    (lemma1 6, lemma2 5, theorems 14; above it ValueError); for 'all' it can
    only shrink each battery's standard bound (useful for quick sweeps).
    The theorems graph count must lie in 1..MAX_GRAPHS.
    Each report carries its battery's wall time.
    """
    if size_bound is not None and size_bound < 1:
        raise ValueError(f"size bound must be at least 1, got {size_bound}")
    if n_graphs is not None and n_graphs < 1:
        raise ValueError(f"graph count must be at least 1, got {n_graphs}")
    if n_graphs is not None and n_graphs > MAX_GRAPHS:
        raise ValueError(f"graph count must be at most {MAX_GRAPHS}")
    clamp = suite == "all"
    reports = []
    if suite in ("lemma1", "all"):
        reports.append(_timed(lemma1_battery, max_n=_bounded("lemma1", size_bound, 5, 6, clamp)))
    if suite in ("lemma2", "all"):
        reports.append(_timed(lemma2_battery, max_n=_bounded("lemma2", size_bound, 4, 5, clamp)))
    if suite in ("theorems", "all"):
        bound = _bounded("theorems", size_bound, 8, 14, clamp)
        reports.append(_timed(theorem_battery, n_graphs=n_graphs or 500, max_n=bound))
        reports.append(_timed(witness_identity_battery, max_n=min(bound, 8)))
    if not reports:
        raise ValueError(f"unknown suite {suite!r}")
    return reports
