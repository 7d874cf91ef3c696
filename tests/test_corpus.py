import random

import pytest

from pvcmon import is_forest
from pvcmon.corpus import (
    all_free_trees,
    all_labeled_graphs,
    complete_bipartite,
    cycle_graph,
    random_bipartite_degree_dominant,
    random_recursive_tree,
    random_tree,
    spider_graph,
)


def test_labeled_graph_counts():
    assert sum(1 for _ in all_labeled_graphs(3)) == 8
    assert sum(1 for _ in all_labeled_graphs(4)) == 64


def test_free_tree_counts():
    # number of trees per order, up to isomorphism
    assert [len(all_free_trees(n)) for n in range(1, 11)] == [
        1, 1, 1, 2, 3, 6, 11, 23, 47, 106,
    ]


def test_free_trees_are_trees():
    for n in range(1, 9):
        for g in all_free_trees(n):
            assert g.n == n and g.m == n - 1 and is_forest(g)


def test_random_tree_is_tree():
    rng = random.Random(0)
    for generate in (random_tree, random_recursive_tree):
        for _ in range(30):
            n = rng.randint(1, 40)
            g = generate(n, rng)
            assert g.n == n and g.m == max(0, n - 1) and is_forest(g)


def test_degree_dominant_generator_meets_hypothesis():
    rng = random.Random(5)
    for _ in range(40):
        g, xs = random_bipartite_degree_dominant(rng)
        assert g.n <= 14
        x = set(xs)
        assert all((u in x) != (v in x) for u, v in g.edges)
        deg = g.degrees
        assert min(deg[v] for v in x) >= max(deg[v] for v in range(g.n) if v not in x)


def test_named_constructions():
    assert cycle_graph(5).m == 5
    with pytest.raises(ValueError, match="^cycles need at least 3 vertices$"):
        cycle_graph(2)
    assert complete_bipartite(2, 3).m == 6
    sp = spider_graph(3, 2)
    assert sp.n == 7 and sp.m == 6 and sp.degree(0) == 3
