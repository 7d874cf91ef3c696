"""Exhaustive desk-scale verification batteries.

Each battery sweeps a corpus of small instances and records every
counterexample; an empty failure list is the pass condition. The same
functions back the CLI ``verify`` subcommand and the acceptance tests.
"""

from __future__ import annotations

import math
import random
import time
from dataclasses import dataclass, field
from fractions import Fraction

from . import oracles
from .corpus import all_labeled_graphs, random_graph
from .graph import Graph, _coerce_rational, coverage
from .monopoly import (
    dynamo_witness_tau,
    is_dynamic_monopoly,
    is_monopoly,
    monopoly_witness_tau,
    sdyn,
    sdyn_via_subgraph,
    smon,
    sparse_profile,
)
from .pvc import PvcbInstance, pvc_decide, pvc_rho_decide
from .reductions import _lemma1_holds, build_gadget, pendant_triple_augment

DEFAULT_RHOS = (Fraction(1, 3), Fraction(1, 2), Fraction(2, 3))


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
    ``flagged`` for separate inspection.
    """
    report = BatteryReport("lemma2")
    for n in range(1, max_n + 1):
        for graph in all_labeled_graphs(n):
            augmented, _ = pendant_triple_augment(graph)
            # the left side <G', k, t + 3k> does not depend on rho
            left = {
                (k, t): pvc_decide(PvcbInstance(augmented, k, t + 3 * k))
                for k in range(n + 1)
                for t in range(graph.m + 1)
            }
            for rho in rhos:
                rho = _coerce_rational(rho)
                for k in range(n + 1):
                    for t in range(graph.m + 1):
                        report.instances += 1
                        record = {**_graph_key(graph), "k": k, "t": t, "rho": str(rho)}
                        inst = build_gadget(graph, k, t, rho)
                        structural_ok = (
                            inst.s >= 1
                            and inst.graph.n == 4 * n + inst.r + 1 + inst.s
                            and inst.graph.m == graph.m + 3 * n + inst.r + inst.s + 1
                        )
                        equivalent = left[k, t] == pvc_rho_decide(inst.graph, k + 1, inst.rho)
                        if not (structural_ok and equivalent):
                            report.failures.append(
                                {**record, "structural_ok": structural_ok, "equivalent": equivalent}
                            )
                        if k == n:
                            report.flagged.append(record)
    return report


def _feasible_averages(graph: Graph, denominators=(1, 2, 3)) -> list[Fraction]:
    """Every average p/q (p <= 2m, q a denominator) with (p/q) n <= 2m, sorted.

    The test runs in integers, p n <= 2m q, so only the kept pairs become
    Fractions.
    """
    degree_sum = 2 * graph.m
    out = {
        Fraction(p, q)
        for q in denominators
        for p in range(1, degree_sum + 1)
        if p * graph.n <= degree_sum * q
    }
    return sorted(out)


def _phi_total_profile(graph: Graph) -> list[int]:
    """Per subset size, the max total of the canonical static-monopoly witness.

    Computed directly from degrees over every subset; independent of the
    cover solvers.
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


def theorem_corpus(n_graphs: int = 500, max_n: int = 8, seed: int = 20240817) -> list[Graph]:
    rng = random.Random(seed)
    out = []
    for _ in range(n_graphs):
        n = rng.randint(1, max_n)
        p = rng.choice((0.2, 0.35, 0.5, 0.65, 0.8))
        out.append(random_graph(n, p, rng))
    return out

def theorem_battery(
    n_graphs: int = 500,
    max_n: int = 8,
    seed: int = 20240817,
    denominators=(1, 2, 3),
) -> BatteryReport:
    """Static and dynamic monopoly identities on a random corpus.

    For every feasible average t the computed sizes must match both
    subset-enumeration routes (witness-total maximization for the static
    case, sparse induced subgraph for the dynamic case), and every witness
    must re-verify through the definitional checkers.
    """
    report = BatteryReport("theorems")
    for graph in theorem_corpus(n_graphs, max_n, seed):
        cover_prof = oracles.cover_profile(graph)
        phi_prof = _phi_total_profile(graph)
        sparse_prof = sparse_profile(graph)
        for t in _feasible_averages(graph, denominators):
            report.instances += 1
            record = {**_graph_key(graph), "t": str(t)}
            nt_ceil = math.ceil(graph.n * t)
            problems = []

            mon = smon(graph, t)
            expect_phi = next(k for k, tot in enumerate(phi_prof) if tot >= nt_ceil)
            expect_cov = next(
                k for k, cov in enumerate(cover_prof) if cov >= math.ceil(Fraction(nt_ceil, 2))
            )
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
                report.failures.append({**record, "problems": problems})
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
    Each report carries its battery's wall time.
    """
    if size_bound is not None and size_bound < 1:
        raise ValueError(f"size bound must be at least 1, got {size_bound}")
    if n_graphs is not None and n_graphs < 1:
        raise ValueError(f"graph count must be at least 1, got {n_graphs}")
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
