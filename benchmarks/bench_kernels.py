#!/usr/bin/env python3
"""Time the hot kernels (best of a few runs, numpy backend), then one run of
each verification battery at its default bounds.

    PYTHONPATH=src python3 benchmarks/bench_kernels.py
"""

from __future__ import annotations

import math
import random
import time
from fractions import Fraction

import numpy as np

from pvcmon import Graph, kernels
from pvcmon.corpus import random_graph, random_tree
from pvcmon.pvc import _csr_arrays, pvc_greedy_upper, pvc_tree
from pvcmon.reductions import build_gadget
from pvcmon.verify import run_suite


def _time(fn, *args, repeat=3):
    best = float("inf")
    result = None
    for _ in range(repeat):
        t0 = time.perf_counter()
        result = fn(*args)
        best = min(best, time.perf_counter() - t0)
    return best, result


def _row(name, secs):
    print(f"{name:<28} {secs * 1e3:>10.2f}ms")


def bench_cover_profile():
    g = random_graph(18, 0.5, random.Random(7))
    eu = np.array([u for u, _ in g.edges], dtype=np.int64)
    ev = np.array([v for _, v in g.edges], dtype=np.int64)
    secs, _ = _time(kernels.cover_profile, g.n, eu, ev)
    _row(f"cover_profile n={g.n} m={g.m}", secs)


def bench_bb_search():
    # batch of budget-capped searches over gadget graphs, the battery hot path
    rng = random.Random(2)
    jobs = []
    greedy_jobs = []
    for _ in range(40):
        base = random_graph(4, 0.6, rng)
        k = rng.randint(0, 3)
        t = rng.randint(0, base.m)
        inst = build_gadget(base, k, t, rng.choice((Fraction(1, 3), Fraction(1, 2), Fraction(2, 3))))
        g = inst.graph
        target = math.ceil(inst.rho * g.m)
        indptr, nbrs = _csr_arrays(g)
        greedy = pvc_greedy_upper(g, target)
        greedy_jobs.append((g, target))
        cap = k + 1
        incumbent = list(greedy.witness) if greedy.size <= cap else None
        jobs.append((g.n, indptr, nbrs, target, cap, incumbent))

    def run():
        out = 0
        for n, indptr, nbrs, target, cap, incumbent in jobs:
            size, _ = kernels.bb_min_cover(n, indptr, nbrs, target, cap, incumbent, True)
            out += size
        return out

    secs, _ = _time(run)
    _row(f"bb_min_cover {len(jobs)} decides", secs)
    # the vertex-cover end (t = m), searched to optimality below the greedy
    # incumbent as pvc_exact does
    g = random_graph(50, 0.15, random.Random(1))
    indptr, nbrs = _csr_arrays(g)
    incumbent = list(pvc_greedy_upper(g, g.m).witness)
    secs, _ = _time(kernels.bb_min_cover, g.n, indptr, nbrs, g.m, g.n, incumbent, False)
    _row(f"bb_min_cover n={g.n} m={g.m} t=m", secs)
    secs, _ = _time(lambda: [pvc_greedy_upper(g, target) for g, target in greedy_jobs])
    _row(f"pvc_greedy_upper {len(greedy_jobs)} gadgets", secs)


def bench_minplus():
    rng = random.Random(3)
    a = np.array([rng.randint(0, 1000) for _ in range(1200)], dtype=np.int64)
    b = np.array([rng.randint(0, 1000) for _ in range(1200)], dtype=np.int64)
    secs, _ = _time(kernels.minplus, a, b)
    _row("minplus 1200x1200", secs)


def _recursive_tree(n, rng):
    # each vertex, in a shuffled order, attaches to a uniformly chosen earlier
    # one: the shallow trees of the benchmark's cli workload
    order = list(range(n))
    rng.shuffle(order)
    return Graph.from_edges(n, [tuple(sorted((order[i], order[rng.randrange(i)]))) for i in range(1, n)])


def bench_tree_solver():
    g = random_tree(2000, random.Random(11))
    secs, res = _time(lambda: pvc_tree(g, g.m), repeat=2)
    print(f"\npvc_tree n=2000 t=m: {secs:.2f}s, cover size {res.size}")
    g = _recursive_tree(2000, random.Random(12))
    secs, res = _time(lambda: pvc_tree(g, g.m // 3), repeat=2)
    print(f"pvc_tree n=2000 recursive tree t=m/3: {secs:.2f}s, cover size {res.size}")


def bench_batteries():
    print(f"\n{'battery':<28} {'time':>12} {'instances/s':>12}")
    for report in run_suite("all"):
        print(f"{report.suite:<28} {report.elapsed_seconds:>11.2f}s {report.instances / report.elapsed_seconds:>12.0f}")


def main():
    print(f"backend: {kernels.backend()}")
    print(f"{'kernel':<28} {'time':>12}")
    bench_cover_profile()
    bench_bb_search()
    bench_minplus()
    bench_tree_solver()
    bench_batteries()


if __name__ == "__main__":
    main()
