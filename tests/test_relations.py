"""Metamorphic relations: exact answers checked beyond enumeration, with no scipy.

An exact solver must keep certain relations between its answers on related
graphs: a disjoint union's answer is the best split of the target between
its parts, a relabelling changes no size, and one more edge to cover costs
at most one more vertex. The monopoly decide forms must answer as the
solves they abbreviate, on graphs far above enumeration's reach.
"""

import random
from fractions import Fraction

from pvcmon import edge_density, pvc_exact, sdyn, sdyn_decide, smon, smon_decide, solve_pvc
from pvcmon.corpus import random_graph, random_recursive_tree, random_tree
from pvcmon.graph import Graph
from pvcmon.oracles import cover_profile
from util import fresh_copy, union


def _sizes(profile: list[int]) -> list[int]:
    # the least size covering each target 0..m, from the most edges each size covers
    return [next(k for k, cov in enumerate(profile) if cov >= t) for t in range(profile[-1] + 1)]


def _dominant_bipartite(rng: random.Random) -> Graph:
    # 20 X vertices and 400 Y vertices, each Y joined to 2 of X: X degrees
    # near 40 dominate Y's 2, so the router picks the degree greedy
    return Graph.from_edges(420, [(x, 20 + y) for y in range(400) for x in rng.sample(range(20), 2)])


ROUTES = ["tree_dp", "degree_greedy", "exact"]


def _route_graphs():
    # one graph per route, in the order of ROUTES
    rng = random.Random(32)
    return [random_tree(300, rng), _dominant_bipartite(rng), random_graph(20, 0.3, rng)]


def test_union_answers_the_best_split_of_its_parts():
    # P_t(G u H) = min over a + b = t of P_a(G) + P_b(H): the parts by
    # enumeration, the union by pvc_exact called directly
    rng = random.Random(18)
    for _ in range(60):
        parts = [random_graph(rng.randint(8, 16), 0.3, rng) for _ in range(rng.randint(2, 3))]
        best = [0]
        for part in parts:
            sizes = _sizes(cover_profile(part))
            best = [min(best[a] + sizes[t - a] for a in range(max(0, t - part.m), min(t, len(best) - 1) + 1))
                    for t in range(len(best) + part.m)]
        g = union(parts, rng)
        assert [pvc_exact(g, t).size for t in range(g.m + 1)] == best


def test_relabelling_keeps_every_size():
    rng = random.Random(7)
    graphs = _route_graphs()
    assert [solve_pvc(g, 1).method for g in graphs] == ROUTES
    for g in graphs:
        relabelled = union([g], rng)
        for t in sorted({0, 1, g.m // 4, g.m // 2, 3 * g.m // 4, g.m - 1, g.m}):
            res, other = solve_pvc(g, t), solve_pvc(relabelled, t)
            assert (other.size, other.method) == (res.size, res.method)


def test_one_more_edge_costs_at_most_one_more_vertex():
    # P_t <= P_{t+1} <= P_t + 1 at sampled t < m, on every route
    rng = random.Random(26)
    graphs = [random_tree(2000, rng), _dominant_bipartite(rng), random_graph(26, 0.2, rng)]
    assert [solve_pvc(g, 1).method for g in graphs] == ROUTES
    for g in graphs:
        for t in sorted({0, g.m - 1, *rng.sample(range(g.m), 8)}):
            low, high = solve_pvc(g, t).size, solve_pvc(g, t + 1).size
            assert low <= high <= low + 1


def test_decide_forms_answer_as_the_solves_at_scale():
    # smon_decide at k asks whether smon at average k * density has size at
    # most d, and sdyn_decide likewise for k > 1, at d on both sides of the answer
    graphs = [*_route_graphs(), random_recursive_tree(600, random.Random(6)), random_graph(26, 0.2, random.Random(26))]
    factors = [Fraction(1, 3), Fraction(1, 2), Fraction(1), Fraction(5, 4), Fraction(3, 2), Fraction(7, 4)]
    for g in graphs:
        for k in factors:
            forms = [(smon_decide, smon)] + ([(sdyn_decide, sdyn)] if k > 1 else [])
            for decide, solve in forms:
                s = solve(g, k * edge_density(g)).size
                assert [decide(fresh_copy(g), d, k) for d in (s - 1, s)] == [False, True]
