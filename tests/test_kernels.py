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
        via_python = kernels._cover_profile_loop(g.n, eu, ev)
        via_numpy = kernels.cover_profile(g.n, eu, ev)
        assert list(via_python) == list(via_numpy)


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
        assert list(kernels.minplus(a, b)) == expected


def _table(values):
    return np.array(values, dtype=np.int64)


@pytest.mark.parametrize(
    "a, b",
    [
        ([3], [4]),                                  # 1x1
        ([kernels.INF], [2]),                        # 1x1, unreachable
        ([2], [0, 5, kernels.INF, 1]),               # one cell on the left
        ([0, 5, kernels.INF, 1], [2]),               # one cell on the right
        ([kernels.INF], [0, 5, kernels.INF, 1]),     # a[0] == INF
        ([0, 5, 1], [kernels.INF]),                  # b[0] == INF
        ([kernels.INF] * 3, [kernels.INF] * 2),      # all unreachable
        ([kernels.INF], [kernels.INF] * 4),
        ([0, kernels.INF], [kernels.INF, 0, 7]),
    ],
)
def test_minplus_edge_cases(a, b):
    a, b = _table(a), _table(b)
    a_before, b_before = a.copy(), b.copy()
    out = kernels.minplus(a, b)
    assert out.dtype == np.int64
    assert list(out) == _naive_minplus(list(a), list(b))
    # the inputs are left as they were, and the result is a new array
    assert list(a) == list(a_before) and list(b) == list(b_before)
    assert not np.shares_memory(out, a) and not np.shares_memory(out, b)


def test_minplus_random_lengths():
    # lengths 1..40 on both sides run the one-add path and the row loop
    rng = random.Random(29)
    for _ in range(300):
        a, b = (
            _table([rng.randint(0, 90) if rng.random() < 0.7 else kernels.INF
                    for _ in range(rng.choice((1, rng.randint(1, 40))))])
            for _ in range(2)
        )
        assert list(kernels.minplus(a, b)) == _naive_minplus(list(a), list(b))


def test_bb_matches_enumeration_minimum():
    from pvcmon.oracles import min_cover_size
    from pvcmon.pvc import pvc_exact

    rng = random.Random(17)
    for _ in range(40):
        g = random_graph(rng.randint(1, 9), rng.choice((0.25, 0.5, 0.75)), rng)
        for t in range(g.m + 1):
            assert pvc_exact(g, t).size == min_cover_size(g, t)

