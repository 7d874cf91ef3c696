"""Named adversarial graph families, checked against full enumeration."""

from pvcmon import Graph, coverage, pvc_exact, pvc_tree
from pvcmon.corpus import (
    complete_bipartite,
    complete_graph,
    cycle_graph,
    path_graph,
    spider_graph,
    star_graph,
)
from pvcmon.oracles import cover_profile
from util import union


def caterpillar(spine, legs_each):
    edges = [(i, i + 1) for i in range(spine - 1)]
    nxt = spine
    for i in range(spine):
        for _ in range(legs_each):
            edges.append((i, nxt))
            nxt += 1
    return Graph.from_edges(nxt, edges)


def double_broom(mid, left, right):
    edges = [(i, i + 1) for i in range(mid - 1)]
    nxt = mid
    for _ in range(left):
        edges.append((0, nxt))
        nxt += 1
    for _ in range(right):
        edges.append((mid - 1, nxt))
        nxt += 1
    return Graph.from_edges(nxt, edges)


PETERSEN = Graph.from_edges(
    10,
    [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (0, 5), (1, 6), (2, 7), (3, 8), (4, 9),
     (5, 7), (7, 9), (9, 6), (6, 8), (8, 5)],
)

GENERAL_FAMILIES = [
    union([cycle_graph(3)] * 5),                  # tie-heavy triangle union
    union([cycle_graph(3), star_graph(4), cycle_graph(3), star_graph(3)]),
    union([complete_graph(5), complete_graph(5)]),
    union([complete_graph(6), path_graph(8)]),
    complete_bipartite(4, 6),
    complete_bipartite(2, 12),
    cycle_graph(14),
    cycle_graph(13),
    PETERSEN,
]

TREE_FAMILIES = [
    caterpillar(5, 2),
    caterpillar(4, 3),
    double_broom(6, 4, 4),
    spider_graph(5, 3),
    path_graph(17),
    star_graph(16),
]


def _enumeration_optimum(profile, t):
    return next(k for k, c in enumerate(profile) if c >= t)


def test_exact_matches_enumeration_on_named_families():
    for g in GENERAL_FAMILIES:
        profile = cover_profile(g)
        for t in range(g.m + 1):
            res = pvc_exact(g, t)
            assert res.size == _enumeration_optimum(profile, t)
            assert coverage(g, res.witness) >= t
            assert len(res.witness) == res.size


def test_tree_solver_matches_enumeration_on_named_trees():
    for g in TREE_FAMILIES:
        profile = cover_profile(g)
        for t in range(g.m + 1):
            res = pvc_tree(g, t)
            assert res.size == _enumeration_optimum(profile, t)
            assert coverage(g, res.witness) >= t


def test_forest_of_named_trees():
    forest = union([caterpillar(3, 1), spider_graph(3, 2), path_graph(4)])
    profile = cover_profile(forest)
    for t in range(forest.m + 1):
        assert pvc_tree(forest, t).size == _enumeration_optimum(profile, t)
