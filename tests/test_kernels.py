import random

import numpy as np
import pytest

from pvcmon import kernels
from pvcmon.corpus import random_graph
from pvcmon.graph import Graph


def _edge_arrays(g: Graph):
    eu = np.array([u for u, _ in g.edges], dtype=np.int64)
    ev = np.array([v for _, v in g.edges], dtype=np.int64)
    return eu, ev


def test_cover_profile_backends_agree():
    rng = random.Random(11)
    for _ in range(20):
        g = random_graph(rng.randint(1, 9), rng.choice((0.3, 0.6)), rng)
        eu, ev = _edge_arrays(g)
        via_python = kernels._cover_profile_py(g.n, eu, ev)
        via_numpy = kernels._cover_profile_numpy(g.n, eu, ev)
        dispatched = kernels.cover_profile(g.n, eu, ev)
        assert list(via_python) == list(via_numpy) == list(dispatched)


def test_cover_profile_guard():
    eu = np.zeros(0, dtype=np.int64)
    ev = np.zeros(0, dtype=np.int64)
    with pytest.raises(ValueError):
        kernels.cover_profile(30, eu, ev)


def _naive_minplus(a, b):
    out = [kernels.INF] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            out[i + j] = min(out[i + j], min(ai + bj, kernels.INF))
    return out


def test_minplus_backends_agree():
    rng = random.Random(5)
    for _ in range(30):
        la = rng.randint(1, 12)
        lb = rng.randint(1, 12)
        a = np.array(
            [rng.randint(0, 50) if rng.random() < 0.8 else kernels.INF for _ in range(la)],
            dtype=np.int64,
        )
        b = np.array(
            [rng.randint(0, 50) if rng.random() < 0.8 else kernels.INF for _ in range(lb)],
            dtype=np.int64,
        )
        expected = _naive_minplus(list(a), list(b))
        assert list(kernels._minplus_py(a, b)) == expected
        assert list(kernels._minplus_numpy(a, b)) == expected
        assert list(kernels.minplus(a, b)) == expected


def test_bb_matches_enumeration_minimum():
    from pvcmon.oracles import min_cover_size
    from pvcmon.pvc import pvc_exact

    rng = random.Random(17)
    for _ in range(40):
        g = random_graph(rng.randint(1, 9), rng.choice((0.25, 0.5, 0.75)), rng)
        for t in range(g.m + 1):
            assert pvc_exact(g, t).size == min_cover_size(g, t)


@pytest.mark.skipif(not kernels.NUMBA_ENABLED, reason="numba backend disabled")
def test_jit_variants_exist():
    assert kernels.backend() == "numba"
    assert hasattr(kernels, "_cover_profile_jit")
    assert hasattr(kernels, "_minplus_jit")
