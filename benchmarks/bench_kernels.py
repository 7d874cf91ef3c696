#!/usr/bin/env python3
"""Benchmark the jitted kernels against their numpy/python fallbacks.

Run with the default environment to time both paths side by side:

    python3 benchmarks/bench_kernels.py

With PVCMON_NUMBA=0 only the fallback path exists and is reported alone.
"""

from __future__ import annotations

import math
import random
import time
from fractions import Fraction

import numpy as np

from pvcmon import kernels
from pvcmon.corpus import random_graph, random_tree
from pvcmon.pvc import _csr_arrays, pvc_greedy_upper, pvc_tree
from pvcmon.reductions import build_gadget


def _time(fn, *args, repeat=3):
    best = float("inf")
    result = None
    for _ in range(repeat):
        t0 = time.perf_counter()
        result = fn(*args)
        best = min(best, time.perf_counter() - t0)
    return best, result


def _row(name, jit_secs, fb_secs):
    if jit_secs is None:
        print(f"{name:<28} {'-':>12} {fb_secs * 1e3:>11.2f}ms {'-':>9}")
    else:
        speedup = fb_secs / jit_secs if jit_secs > 0 else float("inf")
        print(
            f"{name:<28} {jit_secs * 1e3:>10.2f}ms {fb_secs * 1e3:>11.2f}ms {speedup:>8.1f}x"
        )


def bench_cover_profile():
    g = random_graph(18, 0.5, random.Random(7))
    eu = np.array([u for u, _ in g.edges], dtype=np.int64)
    ev = np.array([v for _, v in g.edges], dtype=np.int64)
    fb, base = _time(kernels._cover_profile_numpy, g.n, eu, ev)
    jit = None
    if kernels.NUMBA_ENABLED:
        kernels._cover_profile_jit(4, eu[:0], ev[:0])  # compile outside the timing
        jit, got = _time(kernels._cover_profile_jit, g.n, eu, ev)
        assert list(got) == list(base)
    _row(f"cover_profile n={g.n} m={g.m}", jit, fb)


def bench_bb_search():
    # batch of budget-capped searches over gadget graphs, the battery hot path;
    # the search has no jitted twin, so only the fallback column is filled
    rng = random.Random(2)
    jobs = []
    for _ in range(40):
        base = random_graph(4, 0.6, rng)
        k = rng.randint(0, 3)
        t = rng.randint(0, base.m)
        inst = build_gadget(base, k, t, rng.choice((Fraction(1, 3), Fraction(1, 2), Fraction(2, 3))))
        g = inst.graph
        target = math.ceil(inst.rho * g.m)
        indptr, nbrs, _ = _csr_arrays(g)
        greedy = pvc_greedy_upper(g, target)
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
    _row(f"bb_min_cover {len(jobs)} decides", None, secs)


def bench_minplus():
    rng = random.Random(3)
    a = np.array([rng.randint(0, 1000) for _ in range(1200)], dtype=np.int64)
    b = np.array([rng.randint(0, 1000) for _ in range(1200)], dtype=np.int64)
    fb, base = _time(kernels._minplus_numpy, a, b)
    jit = None
    if kernels.NUMBA_ENABLED:
        kernels._minplus_jit(a[:2], b[:2])  # compile outside the timing
        jit, got = _time(kernels._minplus_jit, a, b)
        assert list(got) == list(base)
    _row("minplus 1200x1200", jit, fb)


def bench_tree_solver():
    g = random_tree(2000, random.Random(11))
    secs, res = _time(lambda: pvc_tree(g, g.m), repeat=2)
    print(f"\npvc_tree n=2000 t=m ({kernels.backend()} backend): "
          f"{secs:.2f}s, cover size {res.size}")


def main():
    print(f"active backend: {kernels.backend()}")
    print(f"{'kernel':<28} {'numba':>12} {'fallback':>13} {'speedup':>9}")
    bench_cover_profile()
    bench_bb_search()
    bench_minplus()
    bench_tree_solver()


if __name__ == "__main__":
    main()
