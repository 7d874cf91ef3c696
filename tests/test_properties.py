"""Property tests over random small graphs, driven by hypothesis."""

from itertools import combinations

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from pvcmon import PvcbInstance, coverage, pvc_decide, pvc_exact
from pvcmon.graph import Graph
from pvcmon.oracles import cover_profile


@st.composite
def graphs(draw, max_n=10):
    n = draw(st.integers(0, max_n))
    pairs = list(combinations(range(n), 2))
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return Graph.from_edges(n, [e for e, k in zip(pairs, keep) if k])


@settings(max_examples=150, deadline=None)
@given(graphs())
def test_decide_agrees_with_exact_size(g):
    profile = cover_profile(g)
    for t in range(g.m + 1):
        res = pvc_exact(g, t)
        assert res.size == min(k for k, c in enumerate(profile) if c >= t)
        assert len(res.witness) == res.size
        assert coverage(g, res.witness) >= t
        for k in range(g.n + 1):
            assert pvc_decide(PvcbInstance(g, k, t)) == (res.size <= k)
