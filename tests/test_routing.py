"""Routing: which solver answers a query, and the one graph walk it reads."""

import hashlib
import json
import random

import pytest

from pvcmon import pick_solver, pvc_exact, solve_pvc
from pvcmon.cli import main
from pvcmon.corpus import (
    complete_bipartite,
    cycle_graph,
    random_graph,
    random_recursive_tree,
    random_tree,
    star_graph,
)
from pvcmon.graph import Graph, to_edge_list_text
from pvcmon.pvc import EXACT_MAX_N, _route
from util import union


def _routing_corpus():
    rng = random.Random(83)
    yield random_tree(12, rng)  # small enough that _route's guard decides whether it walks
    for n in (31, 120, 600):
        yield random_recursive_tree(n, rng)
    for n in (31, 200, 600):
        yield random_tree(n, rng)
    # forests with isolated vertices, their ids spread by the relabelling
    for sizes in ((12, 9, 7, 1, 1, 1), (40, 25, 1, 1), (3, 1, 1, 1, 1) * 7):
        parts = [random_tree(s, rng) for s in sizes]
        yield union(parts, rng)
    yield complete_bipartite(20, 60)
    yield complete_bipartite(3, 40)
    # K_{2,40} with its X ids last: the walk colours vertex 0, on Y, first
    yield Graph.from_edges(42, [(y, 40 + x) for x in range(2) for y in range(40)])
    yield star_graph(40)
    yield cycle_graph(36)  # bipartite and regular: the degree greedy
    yield cycle_graph(35)  # an odd cycle: branch-and-bound
    yield random_graph(34, 0.08, random.Random(7))  # sparse, with cycles: branch-and-bound


def _targets(g):
    return sorted({0, 1, g.m // 3, g.m // 2, g.m})


# sha256 of every route and answer below. Recorded before the three graph
# traversals became one walk, and again when a direct degree greedy took the
# router's orientation: that changed only the nine degreeGreedy lines of the
# forest of seven 3-vertex paths, from exit 2 to a degree_greedy answer. And
# again when the guard's greedy fallback moved into _route: only the route
# lines of the 35-cycle and the 34-vertex random graph changed, from exact to
# heuristic at each guard below their n. And again when pvc refused a guard
# its solver ignores: only the tree and degreeGreedy lines under --guard 5 and
# --guard 40 changed, to exit 2 and the refusal
ROUTING_DIGEST = "46111a94006471bd4c46ccb62a471e0589ded6e78cf888ba8ba986fca6760674"


def test_routing_golden_digest(capsys, tmp_path):
    h = hashlib.sha256()
    for i, g in enumerate(_routing_corpus()):
        h.update(f"graph {g.n} {g.m} {[_route(g, k)[0] for k in (5, 14, 30)]}\n".encode())
        for t in _targets(g):
            res = solve_pvc(g, t)
            h.update(f"{t} {res.size} {sorted(res.witness)} {res.achieved_coverage} {res.method}\n".encode())
        path = tmp_path / f"g{i}.txt"
        path.write_text(to_edge_list_text(g))
        for solver in ("auto", "tree", "degreeGreedy"):
            for guard in ((), ("--guard", "5"), ("--guard", "40")):
                for t in sorted({1, g.m // 2, g.m}):
                    code = main([*guard, "pvc", str(path), "-t", str(t), "--solver", solver])
                    out, err = capsys.readouterr()
                    report = json.loads(out) if out else None
                    if report is not None:
                        del report["elapsed_seconds"]
                    payload = json.dumps(report, sort_keys=True)
                    h.update(f"{solver} {guard} {t} {code} {err!r} {payload}\n".encode())
    assert h.hexdigest() == ROUTING_DIGEST


@pytest.fixture
def walks(monkeypatch):
    """Counts of graph walks made while the test runs."""
    import pvcmon.graph
    import pvcmon.pvc

    counts = {"walk": 0}
    fn = pvcmon.graph.walk

    def walk(graph):
        counts["walk"] += 1
        return fn(graph)

    monkeypatch.setattr(pvcmon.graph, "walk", walk)
    monkeypatch.setattr(pvcmon.pvc, "walk", walk)
    return counts


@pytest.mark.parametrize("guard", [None, 0, 5, 14, 30, 40])
def test_cli_answers_by_the_route(guard, capsys, tmp_path):
    # pvcmon pvc reports the method of the one routing rule, fed its guard
    # (EXACT_MAX_N when none is given), and an upper bound exactly when
    # that method is the greedy's
    flags = () if guard is None else ("--guard", str(guard))
    for i, g in enumerate(_routing_corpus()):
        method = _route(g, EXACT_MAX_N if guard is None else guard).method
        path = tmp_path / f"g{i}.txt"
        path.write_text(to_edge_list_text(g))
        for t in sorted({1, g.m // 2, g.m}):
            assert main([*flags, "pvc", str(path), "-t", str(t)]) == 0
            result = json.loads(capsys.readouterr().out)["result"]
            assert result["method"] == method
            assert result["upper_bound"] == (method == "heuristic")


def test_cli_guard_falls_back_without_a_search(walks, capsys, tmp_path, monkeypatch):
    from pvcmon import kernels

    searches = []
    search = kernels.bb_min_cover
    monkeypatch.setattr(kernels, "bb_min_cover", lambda *a: searches.append(a) or search(*a))
    g = cycle_graph(35)
    path = tmp_path / "c35.txt"
    path.write_text(to_edge_list_text(g))
    assert main(["--guard", "5", "pvc", str(path), "-t", str(g.m)]) == 0
    result = json.loads(capsys.readouterr().out)["result"]
    assert (result["method"], result["upper_bound"]) == ("heuristic", True)
    assert walks == {"walk": 1} and not searches


def test_routed_tree_query_walks_once(walks, capsys, tmp_path):
    g = random_recursive_tree(2000, random.Random(12))
    assert solve_pvc(g, g.m // 3).method == "tree_dp"
    assert walks == {"walk": 1}
    path = tmp_path / "tree.txt"
    path.write_text(to_edge_list_text(g))
    walks["walk"] = 0
    assert main(["pvc", str(path), "-t", str(g.m // 3)]) == 0
    assert json.loads(capsys.readouterr().out)["result"]["method"] == "tree_dp"
    assert walks == {"walk": 1}


def test_routed_bipartite_query_walks_once(walks):
    g = complete_bipartite(20, 400)
    assert solve_pvc(g, g.m // 2).method == "degree_greedy"
    assert walks == {"walk": 1}


def test_small_graphs_route_without_a_walk(walks):
    g = random_tree(30, random.Random(1))
    assert solve_pvc(g, g.m).method == "exact"
    assert walks["walk"] == 0


def test_isolated_vertex_keeps_the_degree_greedy():
    # K_{2,40} (X = {0, 1}) and one isolated vertex, which the walk colours
    # onto side 0 with X; a vertex of degree 0 counts on Y
    g = Graph.from_edges(43, [(x, 2 + y) for x in range(2) for y in range(40)])
    assert pick_solver(g) == "degree_greedy"
    for t in _targets(g):
        assert solve_pvc(g, t).size == pvc_exact(g, t).size


def test_regular_bipartite_graph_with_an_isolated_vertex_keeps_its_witness():
    # both sides of C_36 dominate; with vertex 36 isolated, X is side 1
    g = Graph.from_edges(37, cycle_graph(36).edges)
    res = solve_pvc(g, 4)
    assert res.method == "degree_greedy" and sorted(res.witness) == [1, 3]


def _two_k2_40():
    # two K_{2,40}, X = {0, 1} and X = {82, 83}: the walk colours each from
    # its lowest id, so the two X sides get opposite colours and no side of
    # the whole colouring dominates; each component oriented on its own does
    first = [(x, 2 + y) for x in range(2) for y in range(40)]
    second = [(42 + y, 82 + x) for x in range(2) for y in range(40)]
    return first, second


def test_components_orient_apart(capsys, tmp_path):
    first, second = _two_k2_40()
    for edges in (first, [(u - 42, v - 42) for u, v in second]):
        assert pick_solver(Graph.from_edges(42, edges)) == "degree_greedy"
    g = Graph.from_edges(84, first + second)
    assert pick_solver(g) == "degree_greedy"
    for t in sorted({*_targets(g), 41, 81, 121}):
        res = solve_pvc(g, t)
        assert res.method == "degree_greedy"
        assert res.size == pvc_exact(g, t).size
        assert res.witness <= {0, 1, 82, 83}
    path = tmp_path / "two_k2_40.txt"
    path.write_text(to_edge_list_text(g))
    assert main(["pvc", str(path), "-t", "121"]) == 0
    result = json.loads(capsys.readouterr().out)["result"]
    assert (result["method"], result["size"], result["witness"]) == ("degree_greedy", 4, [0, 1, 82, 83])


def test_direct_degree_greedy_answers_as_the_router(capsys, tmp_path):
    # wherever auto routes to the degree greedy, asking for it by name gives
    # the same answer: one orientation rule serves both
    graphs = [g for g in _routing_corpus() if pick_solver(g) == "degree_greedy"]
    graphs.append(Graph.from_edges(84, [e for part in _two_k2_40() for e in part]))
    assert [g.n for g in graphs] == [80, 43, 42, 36, 84]
    for i, g in enumerate(graphs):
        path = tmp_path / f"g{i}.txt"
        path.write_text(to_edge_list_text(g))
        for t in _targets(g):
            payloads = []
            for solver in ("auto", "degreeGreedy"):
                assert main(["pvc", str(path), "-t", str(t), "--solver", solver]) == 0
                report = json.loads(capsys.readouterr().out)
                del report["elapsed_seconds"]
                payloads.append(report)
            assert payloads[0] == payloads[1]
            assert payloads[0]["result"]["method"] == "degree_greedy"
