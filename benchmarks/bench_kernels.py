#!/usr/bin/env python3
"""Time the hot kernels (best of a few runs, numpy backend), then one run of
each verification battery at its default bounds.

    PYTHONPATH=src python3 benchmarks/bench_kernels.py [--json BENCH_kernels.json]

``--json PATH`` also writes every row's wall time, with the backend, the
Python and numpy versions and the CPU count, to PATH.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import random
import time
from fractions import Fraction

import numpy as np

from pvcmon import kernels
from pvcmon.corpus import random_graph, random_recursive_tree, random_tree
from pvcmon.graph import Graph
from pvcmon.pvc import PvcbInstance, _csr_arrays, pvc_decide, pvc_greedy_upper, pvc_tree
from pvcmon.reductions import build_gadget, pendant_triple_augment
from pvcmon.verify import run_suite


def _time(fn, *args, repeat=3):
    best = float("inf")
    result = None
    for _ in range(repeat):
        t0 = time.perf_counter()
        result = fn(*args)
        best = min(best, time.perf_counter() - t0)
    return best, result


ROWS: list[dict] = []


def _row(name, secs, calls=1):
    # secs is the best time of the whole batch of ``calls`` calls
    ROWS.append({"name": name, "seconds": round(secs, 6), "calls": calls})
    per_call = f"{secs / calls * 1e6:>10.2f}us/call" if calls > 1 else ""
    print(f"{name:<44} {secs * 1e3:>10.2f}ms {per_call}")


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
    _row(f"bb_min_cover {len(jobs)} decides", secs, len(jobs))
    # the vertex-cover end (t = m), searched to optimality below the greedy
    # incumbent as pvc_exact does
    g = random_graph(50, 0.15, random.Random(1))
    indptr, nbrs = _csr_arrays(g)
    incumbent = list(pvc_greedy_upper(g, g.m).witness)
    secs, _ = _time(kernels.bb_min_cover, g.n, indptr, nbrs, g.m, g.n, incumbent, False)
    _row(f"bb_min_cover n={g.n} m={g.m} t=m", secs)
    # a fresh graph object for each call builds the graph's solver state (the
    # greedy from scratch and the degree prefix); the warm row reads it back
    secs, _ = _time(lambda: [pvc_greedy_upper(_fresh(g), target) for g, target in greedy_jobs])
    _row(f"pvc_greedy_upper {len(greedy_jobs)} gadgets", secs, len(greedy_jobs))
    secs, _ = _time(lambda: [pvc_greedy_upper(g, target) for g, target in greedy_jobs])
    _row(f"pvc_greedy_upper {len(greedy_jobs)} gadgets, warm", secs, len(greedy_jobs))


def bench_lemma1_decides():
    # the lemma1 battery's right side: <G', k, t + 3k> at every (k, t) on
    # pendant-augmented graphs; each timed run starts from fresh graph
    # objects, so the per-graph solver state is built inside the timing
    rng = random.Random(5)
    augmented = [
        (base.m, pendant_triple_augment(base)[0])
        for base in (random_graph(rng.randint(3, 6), rng.choice((0.3, 0.5, 0.8)), rng) for _ in range(60))
    ]
    calls = sum((g.n // 4 + 1) * (m + 1) for m, g in augmented)

    def run():
        yes = 0
        for m, g in augmented:
            g = _fresh(g)
            n = g.n // 4
            yes += sum(pvc_decide(PvcbInstance(g, k, t + 3 * k)) for k in range(n + 1) for t in range(m + 1))
        return yes

    secs, _ = _time(run)
    _row(f"pvc_decide lemma1-shaped ({len(augmented)} graphs)", secs, calls)


def _fresh(g):
    return Graph(g.n, g.edges, g.adjacency)


def bench_minplus():
    rng = random.Random(3)

    def table(length):
        return np.array([rng.randint(0, 1000) for _ in range(length)], dtype=np.int64)

    # the tree DP's shapes: a one-cell base table or a short prefix table
    # folded with a child's link table, then one large merge
    for rows, cols, calls in ((1, 2, 20000), (1, 200, 20000), (2, 200, 10000), (40, 200, 1000)):
        pairs = [(table(rows), table(cols)) for _ in range(16)]
        batch = [pairs[i % 16] for i in range(calls)]
        secs, _ = _time(lambda: [kernels.minplus(a, b) for a, b in batch])
        _row(f"minplus {rows}x{cols}", secs, calls)
    secs, _ = _time(kernels.minplus, table(1200), table(1200))
    _row("minplus 1200x1200", secs)


def bench_tree_solver():
    g = random_tree(2000, random.Random(11))
    secs, res = _time(lambda: pvc_tree(g, g.m), repeat=2)
    _row(f"pvc_tree n=2000 t=m (size {res.size})", secs)
    g = random_recursive_tree(2000, random.Random(12))
    secs, res = _time(lambda: pvc_tree(g, g.m // 3), repeat=2)
    _row(f"pvc_tree recursive n=2000 t=m/3 (size {res.size})", secs)
    # the benchmark cli workload's pvc trees, each at a random target
    rng = random.Random(13)
    mix = (2000, 2000, 1500, 1500, 1000, 1000) + (600,) * 30 + (300,) * 4
    queries = [(g, rng.randint(1, g.m)) for g in (random_recursive_tree(n, rng) for n in mix)]
    secs, _ = _time(lambda: [pvc_tree(g, t) for g, t in queries], repeat=2)
    _row(f"pvc_tree cli mix ({len(queries)} trees)", secs, len(queries))


def bench_batteries():
    print(f"\n{'battery':<44} {'time':>12} {'instances/s':>12}")
    for report in run_suite("all"):
        rate = report.instances / report.elapsed_seconds
        ROWS.append({"name": f"battery {report.suite}", "seconds": round(report.elapsed_seconds, 6),
                     "calls": report.instances})
        print(f"{report.suite:<44} {report.elapsed_seconds:>11.2f}s {rate:>12.0f}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--json", metavar="PATH", help="also write the rows to this JSON file")
    args = parser.parse_args()
    print(f"backend: {kernels.backend()}")
    print(f"{'kernel':<44} {'time':>12}")
    bench_cover_profile()
    bench_bb_search()
    bench_lemma1_decides()
    bench_minplus()
    bench_tree_solver()
    bench_batteries()
    if args.json:
        report = {
            "backend": kernels.backend(),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "cpu_count": os.cpu_count(),
            "timing": "best of 2-3 runs; seconds is the whole batch of calls",
            "rows": ROWS,
        }
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=2)
            fh.write("\n")


if __name__ == "__main__":
    main()
