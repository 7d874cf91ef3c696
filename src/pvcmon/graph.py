"""Simple undirected graphs: edge-list parsing, coverage counting, the walk.

``walk`` is the one structural traversal, a BFS whose forest flag
``is_forest`` reads and whose rooted children and 2-colouring the solvers
read; it is returned, never kept on the graph.

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
from typing import Iterable, NamedTuple, Optional, Union

from .errors import GraphFormatError

Rational = Union[int, str, Fraction]

# The most vertices parse_graph accepts: a Graph takes ~430 bytes per vertex
# before any edge, so a header at the limit costs ~0.43 GB.
MAX_VERTICES = 1_000_000


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

    def has_edge(self, u: int, v: int) -> bool:
        return v in self.adjacency[u] if 0 <= u < self.n else False


def _coerce_rational(value: Rational) -> Fraction:
    """An exact rational from an int, a 'p/q' string or a Fraction.

    Floats raise TypeError: a float such as 0.1 is not the fraction it
    prints as, and a ceiling taken of it can be off by one. A zero
    denominator raises ValueError.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, float):
        raise TypeError("pass an exact rational (int, 'p/q' string, or Fraction), not a float")
    try:
        return Fraction(value)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {value!r}") from None


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
    ignored. Self-loops, duplicate edges, out-of-range ids, a wrong edge
    count and n above ``MAX_VERTICES`` all raise :class:`GraphFormatError`,
    the last before anything is allocated for the graph.
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
    if n > MAX_VERTICES:
        raise GraphFormatError(f"line {lineno}: n={n} exceeds the limit of {MAX_VERTICES} vertices")
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


class Walk(NamedTuple):
    """One BFS over a graph: each component from its lowest id, each
    vertex's neighbours in increasing id order.

    ``children[v]`` is the tuple of vertices v enqueues (a leaf's is the
    shared empty tuple) and ``order`` lists every vertex as visited.
    ``side[v]`` is the parity of v's depth, so each root is on side 0; it
    is None when some edge joins two vertices of one parity (an odd cycle).
    """

    roots: list[int]
    children: list[tuple[int, ...]]
    order: list[int]
    forest: bool
    side: Optional[list[int]]


def walk(graph: Graph) -> Walk:
    """The graph's ``Walk``, built afresh on each call."""
    adjacency = graph.adjacency
    side = [-1] * graph.n
    children: list[tuple[int, ...]] = [()] * graph.n
    roots: list[int] = []
    order: list[int] = []
    bipartite = True
    for start in range(graph.n):
        if side[start] >= 0:
            continue
        side[start] = 0
        roots.append(start)
        queue = [start]
        for v in queue:  # runs on over the vertices appended below
            lo = len(queue)
            for u in sorted(adjacency[v]):
                if side[u] < 0:
                    side[u] = 1 - side[v]
                    queue.append(u)
                elif side[u] == side[v]:
                    bipartite = False
            if len(queue) > lo:
                children[v] = tuple(queue[lo:])
        order.extend(queue)
    # a graph is a forest iff each component has one edge fewer than vertices
    forest = graph.m == graph.n - len(roots)
    return Walk(roots, children, order, forest, side if bipartite else None)


def is_forest(graph: Graph) -> bool:
    """True when the graph is acyclic (a forest, possibly disconnected)."""
    return walk(graph).forest
