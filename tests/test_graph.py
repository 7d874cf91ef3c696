import random
import tracemalloc
from fractions import Fraction

import pytest

from pvcmon import (
    Graph,
    GraphFormatError,
    build_gadget,
    coverage,
    edge_density,
    induced_subgraph,
    is_forest,
    parse_graph,
    pvc_rho_decide,
    smon,
    to_edge_list_text,
)
from pvcmon.graph import MAX_VERTICES, walk
from pvcmon.corpus import (
    complete_bipartite,
    complete_graph,
    cycle_graph,
    path_graph,
    random_graph,
    random_recursive_tree,
    star_graph,
)


def test_parse_path():
    g = parse_graph("3 2\n0 1\n1 2")
    assert g.n == 3 and g.m == 2
    assert g.edges == ((0, 1), (1, 2))


def test_parse_isolated_vertex():
    g = parse_graph("1 0")
    assert g.n == 1 and g.m == 0


def test_parse_comments_and_blanks():
    g = parse_graph("# a path\n\n3 2\n0 1\n# middle\n1 2\n")
    assert g.m == 2


@pytest.mark.parametrize(
    "text",
    [
        "2 1\n0 0",          # self-loop
        "2 2\n0 1\n1 0",     # duplicate edge
        "2 1\n0 2",          # id out of range
        "2 1",               # missing edge line
        "2 1\n0 1\n0 1",     # too many edge lines
        "2\n0 1",            # bad header
        "2 1\nx y",          # non-integer endpoints
        "",                  # empty document
    ],
)
def test_parse_errors(text):
    with pytest.raises(GraphFormatError):
        parse_graph(text)


@pytest.mark.parametrize(
    "text, message",
    [
        # the header comes first: a non-integer count is named before an edge fault
        ("2 x\n0 0", "line 1: header must contain two integers"),
        # range and self-loop faults come before a duplicate, even an earlier one
        ("3 3\n0 1\n1 0\n0 3", "edge (0, 3) out of range for n=3"),
        ("3 3\n0 1\n0 1\n2 2", "self-loop at vertex 2"),
        # the smallest duplicated edge is named, not the first repeat in the file
        ("4 4\n2 3\n3 2\n1 0\n0 1", "duplicate edge (0, 1)"),
        # a malformed edge line comes before a wrong edge count
        ("3 1\n0 1\n1 x", "line 3: edge endpoints must be integers"),
        ("3 3\n0 1\n1 2 0", "line 3: edge line must be exactly 'u v'"),
    ],
)
def test_parse_names_the_first_fault_in_check_order(text, message):
    with pytest.raises(GraphFormatError) as caught:
        parse_graph(text)
    assert str(caught.value) == message


def test_from_edges_refuses_a_negative_vertex_count():
    with pytest.raises(ValueError) as caught:
        Graph.from_edges(-1, [])
    assert str(caught.value) == "vertex count must be nonnegative"


def test_serialization_round_trip():
    g = cycle_graph(5)
    assert parse_graph(to_edge_list_text(g)) == g


def test_coverage_examples():
    c4 = cycle_graph(4)
    assert coverage(c4, {0}) == 2
    assert coverage(star_graph(5), {0}) == 5
    assert coverage(c4, set()) == 0
    with pytest.raises(ValueError):
        coverage(c4, {7})


def test_coverage_full_set_and_monotone():
    rng = random.Random(3)
    for _ in range(25):
        g = random_graph(rng.randint(1, 8), 0.5, rng)
        assert coverage(g, range(g.n)) == g.m
        s = {v for v in range(g.n) if rng.random() < 0.4}
        s_bigger = s | {v for v in range(g.n) if rng.random() < 0.3}
        assert coverage(g, s) <= coverage(g, s_bigger)


def test_coverage_complement_identity():
    rng = random.Random(4)
    for _ in range(20):
        g = random_graph(rng.randint(1, 7), 0.5, rng)
        for mask in range(1 << g.n):
            s = {v for v in range(g.n) if (mask >> v) & 1}
            rest = set(range(g.n)) - s
            sub, _ = induced_subgraph(g, rest)
            assert coverage(g, s) == g.m - sub.m


def test_induced_subgraph_examples():
    c4 = cycle_graph(4)
    sub, ids = induced_subgraph(c4, {0, 1})
    assert sub.m == 1 and ids == (0, 1)
    sub, _ = induced_subgraph(c4, {0, 2})
    assert sub.n == 2 and sub.m == 0
    sub, _ = induced_subgraph(complete_graph(4), {0, 2, 3})
    assert sub.m == 3
    full, ids = induced_subgraph(c4, range(4))
    assert full == c4 and ids == (0, 1, 2, 3)


def test_edge_density():
    assert edge_density(cycle_graph(4)) == 1
    assert edge_density(complete_graph(4)) == Fraction(3, 2)
    assert edge_density(Graph.from_edges(5, [])) == 0
    with pytest.raises(ValueError):
        edge_density(Graph.from_edges(0, []))


def test_edge_density_relabel_invariant():
    rng = random.Random(9)
    for _ in range(10):
        g = random_graph(6, 0.5, rng)
        perm = list(range(6))
        rng.shuffle(perm)
        h = Graph.from_edges(6, [(perm[u], perm[v]) for u, v in g.edges])
        assert edge_density(g) == edge_density(h)


@pytest.mark.parametrize("call", [
    lambda rho: smon(cycle_graph(4), rho),
    lambda rho: pvc_rho_decide(cycle_graph(4), 1, rho),
    lambda rho: build_gadget(cycle_graph(4), 1, 2, rho),
], ids=["smon", "pvc_rho_decide", "build_gadget"])
def test_zero_denominator_is_a_value_error(call):
    with pytest.raises(ValueError, match="zero denominator in '1/0'"):
        call("1/0")


def test_bipartition_even_cycle():
    assert walk(cycle_graph(4)).side == [0, 1, 0, 1]


def test_bipartition_odd_cycle_absent():
    assert walk(cycle_graph(5)).side is None


def test_bipartition_smallest_id_lands_on_x():
    # two components; each component's lowest id must sit on side 0, the
    # side the degree greedy tries as X first
    g = Graph.from_edges(6, [(0, 1), (2, 3), (3, 4), (4, 5)])
    assert walk(g).side == [0, 1, 0, 1, 0, 1]


def test_is_forest():
    assert is_forest(path_graph(5))
    assert is_forest(Graph.from_edges(4, []))
    assert not is_forest(cycle_graph(3))


def test_from_edges_normalizes_order():
    a = Graph.from_edges(3, [(2, 1), (1, 0)])
    b = Graph.from_edges(3, [(0, 1), (1, 2)])
    assert a == b


@pytest.mark.parametrize("n", [300_000_000, MAX_VERTICES + 1])
def test_parse_refuses_a_header_above_the_vertex_limit(n, monkeypatch):
    # refused from the header alone: no Graph is built
    def unreachable(*args):
        raise AssertionError("from_edges reached")

    monkeypatch.setattr(Graph, "from_edges", staticmethod(unreachable))
    with pytest.raises(GraphFormatError, match=f"^line 2: n={n} exceeds the limit of 1000000 vertices$"):
        parse_graph(f"# header\n{n} 0\n")


def test_parse_passes_a_header_at_the_vertex_limit_on(monkeypatch):
    built = []
    monkeypatch.setattr(Graph, "from_edges", staticmethod(lambda n, edges: built.append((n, edges))))
    parse_graph(f"{MAX_VERTICES} 1\n0 {MAX_VERTICES - 1}\n")
    assert built == [(MAX_VERTICES, [(0, MAX_VERTICES - 1)])]


def _traced_bytes(build, *args):
    # build(*args), and the (kept, peak) bytes it allocates, by tracemalloc
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        graph = build(*args)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return graph, kept - before, peak - before


@pytest.mark.parametrize("shape, kept_max, peak_max", [("edgeless", 16, 128), ("recursive tree", 192, 400)])
def test_graph_bytes_per_vertex(shape, kept_max, peak_max):
    # an edgeless graph keeps one pointer per vertex (the shared empty
    # tuple); a tree keeps its edge tuples and an average of two neighbours
    n = 100_000
    edges = [] if shape == "edgeless" else list(random_recursive_tree(n, random.Random(1)).edges)
    graph, kept, peak = _traced_bytes(Graph.from_edges, n, edges)
    assert graph.n == n
    kept, peak = kept / n, peak / n
    assert kept <= kept_max and peak <= peak_max, (kept, peak)


@pytest.mark.parametrize("route, peak_max", [("parse_graph", 420), ("from_edges", 125)])
def test_input_path_peak_bytes_per_edge(route, peak_max):
    # the peak per edge while parsing (the text, ~12 B an edge, is made
    # before) or building: the lines, the parsed and the normalized edge
    # tuples and the adjacency, with no second copy of the lines and no set
    # of seen edges
    if route == "parse_graph":
        tree = random_recursive_tree(100_001, random.Random(1))
        m, args = tree.m, (to_edge_list_text(tree),)
    else:
        edges = list(random_graph(1500, 0.2, random.Random(7)).edges)
        m, args = len(edges), (1500, edges)
    graph, _, peak = _traced_bytes(parse_graph if route == "parse_graph" else Graph.from_edges, *args)
    assert graph.m == m
    assert peak / m <= peak_max, peak / m
