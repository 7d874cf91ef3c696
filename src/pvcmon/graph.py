"""Simple undirected graphs: edge-list parsing, coverage counting, the walk.

A ``Graph`` keeps its edges sorted and each vertex's neighbours as an
increasing tuple, both fixed at construction; ``walk`` and the solvers
read them in that order and never sort them again.

``walk`` is the one structural traversal, a BFS whose forest flag
``is_forest`` reads and whose rooted children and 2-colouring the solvers
read; it is returned, never kept on the graph.

A graph's vertices and edges never change after construction, and every
function here is pure. A ``Graph`` also carries one private slot, ``_pvc``,
where ``pvc.py`` keeps what it derives from it (see ``pvc._SolverState``).
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, NamedTuple, Optional, Union

from .errors import GraphFormatError, InfeasibleTargetError

Rational = Union[int, str, Fraction]

# The most vertices parse_graph accepts: an edgeless Graph peaks at ~73 bytes
# per vertex while built and keeps ~8, so a header at the limit costs ~73 MB.
MAX_VERTICES = 1_000_000


@dataclass(frozen=True)
class Graph:
    """Immutable simple undirected graph on vertex ids 0..n-1.

    Edges are stored normalized (u < v) and sorted lexicographically, so two
    graphs with the same edge set compare equal and serialize identically.
    Isolated vertices are legal: n comes from the header, not the edge list.

    ``adjacency[v]`` is the tuple of v's neighbours in strictly increasing
    order, the one neighbour order every reader relies on. ``from_edges``
    gets it without a sort: walking the sorted edges, v meets its lower
    neighbours (as the second endpoint) in increasing order before its
    higher ones (as the first).
    """

    n: int
    edges: tuple[tuple[int, int], ...]
    adjacency: tuple[tuple[int, ...], ...]
    # pvc.py's solver state for this object (``pvc._SolverState``), stored
    # on the instance on first use; a class attribute, not a field, so it
    # takes no part in construction, eq, hash or repr.
    _pvc = None

    @staticmethod
    def from_edges(n: int, edges: Iterable[tuple[int, int]]) -> "Graph":
        """Normalize, range- and loop-check each edge in input order, then sort;
        a repeated edge is found in the sorted pass, so the smallest is named.
        ``n`` and each endpoint are stored as plain ints (``operator.index``:
        a bool or a numpy integer becomes one, a float or a string raises
        TypeError)."""
        index = operator.index
        n = index(n)
        if n < 0:
            raise ValueError("vertex count must be nonnegative")
        normalized: list[tuple[int, int]] = []
        for u, v in edges:
            u, v = index(u), index(v)
            if not (0 <= u < n) or not (0 <= v < n):
                raise ValueError(f"edge ({u}, {v}) out of range for n={n}")
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            normalized.append((u, v) if u < v else (v, u))
        return Graph._assemble(n, normalized, check_duplicates=True)

    @staticmethod
    def _assemble(n: int, normalized: list[tuple[int, int]], check_duplicates: bool = False) -> "Graph":
        """The graph on n vertices with these in-range, normalized (u < v)
        edges, sorted in place, then laid down as adjacency. With
        ``check_duplicates`` a repeated edge raises ValueError naming the
        smallest; without it the caller guarantees the edges are unique, as
        a gadget's generated edges are."""
        normalized.sort()
        adj: list[list[int]] = [[] for _ in range(n)]
        for u, v in normalized:
            if check_duplicates and adj[u] and adj[u][-1] == v:
                raise ValueError(f"duplicate edge {(u, v)}")
            adj[u].append(v)
            adj[v].append(u)
        return Graph(n, tuple(normalized), tuple(map(tuple, adj)))

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


def _fraction_between(value: Rational, low: int, high: int, name: str) -> Fraction:
    """``value`` as an exact rational (``_coerce_rational``), checked to lie
    strictly between ``low`` and ``high``, in integers (a Fraction compared
    with an int is ~6x slower); ``name`` is what the message calls it."""
    value = _coerce_rational(value)
    a, b = value.numerator, value.denominator
    if not low * b < a < high * b:
        raise ValueError(f"{name} must lie strictly between {low} and {high}, got {value}")
    return value


def _check_target(graph: Graph, t: int) -> int:
    """t as a plain int (``operator.index``: a float raises TypeError),
    checked to lie in [0, m]. A negative t is an input error (ValueError);
    one above m is a target no subset meets (InfeasibleTargetError)."""
    t = operator.index(t)
    if t < 0:
        raise ValueError(f"negative coverage target {t}")
    if t > graph.m:
        raise InfeasibleTargetError(f"target {t} exceeds edge count {graph.m}")
    return t


def _check_instance(graph: Graph, k: int, t: int) -> tuple[int, int]:
    """k and t as plain ints, k checked to lie in [0, n] (``operator.index``:
    a float raises TypeError), then t by ``_check_target``."""
    k = operator.index(k)
    if not 0 <= k <= graph.n:
        raise ValueError(f"budget k={k} outside [0, {graph.n}]")
    return k, _check_target(graph, t)


def vertex_subset(graph: Graph, subset: Iterable[int]) -> frozenset[int]:
    """Validate and freeze a collection of vertex ids. An id that is not an
    integer (a float, a string) raises TypeError rather than being truncated."""
    out = frozenset(map(operator.index, subset))
    n = graph.n
    for v in out:
        if not (0 <= v < n):
            raise ValueError(f"vertex id {v} out of range for n={n}")
    return out


def _data_lines(text: str) -> Iterator[tuple[int, str]]:
    """(line number from 1, stripped line) for each line neither blank nor a ``#`` comment."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if line and not line.startswith("#"):
            yield lineno, line


def parse_graph(text: str) -> Graph:
    """Parse the canonical edge-list format: a header ``n m``, then m lines ``u v``
    with 0 <= u, v < n and u != v, among the lines ``_data_lines`` skips. A fault
    raises :class:`GraphFormatError`; of several, the first found is named: the
    header (n above ``MAX_VERTICES`` before any edge line is read), each edge
    line's form in file order, the edge count, then ``Graph.from_edges``' checks.
    """
    lines = _data_lines(text)
    lineno, header = next(lines, (0, None))
    if header is None:
        raise GraphFormatError("missing header line 'n m'")
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
    edges: list[tuple[int, int]] = []
    for lineno, line in lines:
        parts = line.split()
        if len(parts) != 2:
            raise GraphFormatError(f"line {lineno}: edge line must be exactly 'u v'")
        try:
            edges.append((int(parts[0]), int(parts[1])))
        except ValueError:
            raise GraphFormatError(f"line {lineno}: edge endpoints must be integers") from None
    if len(edges) != m:
        raise GraphFormatError(f"expected {m} edge lines, found {len(edges)}")
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
            for u in adjacency[v]:
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
