"""Simple undirected graphs: edge-list parsing, coverage counting, bipartitions.

A graph's vertices and edges never change after construction, and every
function here is pure. A ``Graph`` also carries one private slot that
``pvc.py`` fills with solver state derived from it (see
``pvc._solver_state``); each state put there is immutable, and growing it
builds a new state and swaps it in with one attribute store. So shared
instances are safe to use from any number of threads.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional, Union

from .errors import GraphFormatError

Rational = Union[int, str, Fraction]


@dataclass(frozen=True)
class Graph:
    """Immutable simple undirected graph on vertex ids 0..n-1.

    Edges are stored normalized (u < v) and sorted lexicographically, so two
    graphs with the same edge set compare equal and serialize identically.
    Isolated vertices are legal: n comes from the header, not the edge list.
    """

    n: int
    edges: tuple[tuple[int, int], ...]
    adjacency: tuple[frozenset[int], ...]
    # pvc.py's solver state for this object, stored on the instance on first
    # use. A plain class attribute, not a field: it takes no part in
    # construction, eq, hash or repr, so equal graphs stay equal and no two
    # graph objects share a state.
    _pvc_state = None

    @staticmethod
    def from_edges(n: int, edges: Iterable[tuple[int, int]]) -> "Graph":
        if n < 0:
            raise ValueError("vertex count must be nonnegative")
        seen: set[tuple[int, int]] = set()
        normalized: list[tuple[int, int]] = []
        for u, v in edges:
            if not (0 <= u < n) or not (0 <= v < n):
                raise ValueError(f"edge ({u}, {v}) out of range for n={n}")
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            e = (u, v) if u < v else (v, u)
            if e in seen:
                raise ValueError(f"duplicate edge {e}")
            seen.add(e)
            normalized.append(e)
        normalized.sort()
        adj: list[set[int]] = [set() for _ in range(n)]
        for u, v in normalized:
            adj[u].add(v)
            adj[v].add(u)
        return Graph(n, tuple(normalized), tuple(frozenset(s) for s in adj))

    @property
    def m(self) -> int:
        return len(self.edges)

    def degree(self, v: int) -> int:
        return len(self.adjacency[v])

    @property
    def degrees(self) -> tuple[int, ...]:
        return tuple(map(len, self.adjacency))

    def vertices(self) -> range:
        return range(self.n)

    def has_edge(self, u: int, v: int) -> bool:
        return v in self.adjacency[u] if 0 <= u < self.n else False


@dataclass(frozen=True)
class BipartitionView:
    """A validated two-sided view of a bipartite graph.

    ``sorted_degrees_x`` lists the degrees of the X side in nonincreasing
    order; ``min_degree_x`` / ``max_degree_y`` are the side extremes that the
    degree-greedy solver checks its hypothesis against.
    """

    x: tuple[int, ...]
    y: tuple[int, ...]
    sorted_degrees_x: tuple[int, ...]
    min_degree_x: int
    max_degree_y: int


def _coerce_rational(value: Rational) -> Fraction:
    """An exact rational from an int, a 'p/q' string or a Fraction.

    Floats raise TypeError: a float such as 0.1 is not the fraction it
    prints as, and a ceiling taken of it can be off by one.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, float):
        raise TypeError("pass an exact rational (int, 'p/q' string, or Fraction), not a float")
    return Fraction(value)


def vertex_subset(graph: Graph, subset: Iterable[int]) -> frozenset[int]:
    """Validate and freeze a collection of vertex ids."""
    out = frozenset(int(v) for v in subset)
    for v in out:
        if not (0 <= v < graph.n):
            raise ValueError(f"vertex id {v} out of range for n={graph.n}")
    return out


def parse_graph(text: str) -> Graph:
    """Parse the canonical edge-list format.

    The first data line is ``n m``; the next m data lines are ``u v`` with
    0 <= u, v < n and u != v. Blank lines and lines starting with ``#`` are
    ignored. Self-loops, duplicate edges, out-of-range ids, and a wrong edge
    count all raise :class:`GraphFormatError`.
    """
    rows: list[tuple[int, str]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        rows.append((lineno, line))
    if not rows:
        raise GraphFormatError("missing header line 'n m'")
    lineno, header = rows[0]
    parts = header.split()
    if len(parts) != 2:
        raise GraphFormatError(f"line {lineno}: header must be exactly 'n m'")
    try:
        n, m = int(parts[0]), int(parts[1])
    except ValueError:
        raise GraphFormatError(f"line {lineno}: header must contain two integers") from None
    if n < 0 or m < 0:
        raise GraphFormatError(f"line {lineno}: n and m must be nonnegative")
    if len(rows) - 1 != m:
        raise GraphFormatError(f"expected {m} edge lines, found {len(rows) - 1}")
    edges: list[tuple[int, int]] = []
    for lineno, line in rows[1:]:
        parts = line.split()
        if len(parts) != 2:
            raise GraphFormatError(f"line {lineno}: edge line must be exactly 'u v'")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise GraphFormatError(f"line {lineno}: edge endpoints must be integers") from None
        edges.append((u, v))
    try:
        return Graph.from_edges(n, edges)
    except ValueError as exc:
        raise GraphFormatError(str(exc)) from None


def to_edge_list_text(graph: Graph) -> str:
    """Serialize a graph to the canonical edge-list format (byte-stable)."""
    lines = [f"{graph.n} {graph.m}"]
    lines.extend(f"{u} {v}" for u, v in graph.edges)
    return "\n".join(lines) + "\n"


def coverage(graph: Graph, subset: Iterable[int]) -> int:
    """Number of edges with at least one endpoint in ``subset``."""
    s = vertex_subset(graph, subset)
    return sum(1 for u, v in graph.edges if u in s or v in s)


def induced_subgraph(graph: Graph, subset: Iterable[int]) -> tuple[Graph, tuple[int, ...]]:
    """Graph induced on ``subset``, relabeled to 0..|subset|-1.

    Returns the subgraph together with the id map: entry i is the original
    id of new vertex i (original ids in ascending order).
    """
    keep = sorted(vertex_subset(graph, subset))
    index = {v: i for i, v in enumerate(keep)}
    edges = [
        (index[u], index[v])
        for u, v in graph.edges
        if u in index and v in index
    ]
    return Graph.from_edges(len(keep), edges), tuple(keep)


def edge_density(graph: Graph) -> Fraction:
    """Edges per vertex, as an exact rational."""
    if graph.n == 0:
        raise ValueError("edge density undefined for the empty graph")
    return Fraction(graph.m, graph.n)


def is_forest(graph: Graph) -> bool:
    """True when the graph is acyclic (a forest, possibly disconnected)."""
    parent = list(range(graph.n))

    def find(a: int) -> int:
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for u, v in graph.edges:
        ru, rv = find(u), find(v)
        if ru == rv:
            return False
        parent[ru] = rv
    return True


def _make_view(graph: Graph, xs: Iterable[int], ys: Iterable[int]) -> BipartitionView:
    deg = graph.degrees
    x = tuple(sorted(xs))
    y = tuple(sorted(ys))
    degs_x = tuple(sorted((deg[v] for v in x), reverse=True))
    return BipartitionView(
        x=x,
        y=y,
        sorted_degrees_x=degs_x,
        min_degree_x=min((deg[v] for v in x), default=0),
        max_degree_y=max((deg[v] for v in y), default=0),
    )


def bipartition(graph: Graph, x_hint: Optional[Iterable[int]] = None) -> Optional[BipartitionView]:
    """Two-color the graph, or validate a caller-supplied X side.

    Without a hint, each connected component is 2-colored by BFS and the side
    containing the component's smallest vertex id goes to X; returns None if
    some component has an odd cycle. With a hint, the partition (X, V - X) is
    checked: every edge must cross, otherwise ValueError.
    """
    if x_hint is not None:
        xs = vertex_subset(graph, x_hint)
        ys = frozenset(range(graph.n)) - xs
        for u, v in graph.edges:
            if (u in xs) == (v in xs):
                raise ValueError(f"edge ({u}, {v}) does not cross the hinted bipartition")
        return _make_view(graph, xs, ys)

    color = [-1] * graph.n
    for start in range(graph.n):
        if color[start] != -1:
            continue
        color[start] = 0  # smallest id of its component lands on X
        queue = [start]
        qi = 0
        while qi < len(queue):
            v = queue[qi]
            qi += 1
            for u in graph.adjacency[v]:
                if color[u] == -1:
                    color[u] = 1 - color[v]
                    queue.append(u)
                elif color[u] == color[v]:
                    return None
    xs = [v for v in range(graph.n) if color[v] == 0]
    ys = [v for v in range(graph.n) if color[v] == 1]
    return _make_view(graph, xs, ys)
