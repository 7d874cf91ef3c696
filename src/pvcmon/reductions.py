"""Reduction gadgets tying budgeted partial cover to fractional partial cover.

Two constructions are provided, with verifiers that decide both sides:

* ``pendant_triple_augment`` attaches three degree-one vertices to every
  original vertex, shifting any coverage target by exactly 3k.
* ``build_gadget`` glues a large star and a calibrated path onto the
  augmented graph, turning a budgeted instance into a fixed-fraction one.
  It is the one builder of gadget graphs: a ``_GadgetFamily`` of one
  (graph, rho) called once; a caller that builds many gadgets of one
  (graph, rho) keeps the family, which lays down their common part once.
  ``load_gadget`` accepts its serialized form only if it matches exactly
  the layout (``_layout``) that the sidecar's own parameters give.

Every budgeted side is decided by ``pvc._decide``, and every fractional
side by ``pvc_rho_decide``. The public verifiers check their instances
first with ``graph._check_instance``, and rho with ``graph._fraction_between``
(``verify_lemma1`` directly, the others in ``_GadgetFamily``); the batteries'
loops keep every instance valid. Like every decide form, they have no size guard.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction

from .errors import GadgetConstructionError
from .graph import MAX_VERTICES, Graph, Rational, _check_instance, _fraction_between, parse_graph, to_edge_list_text
from .pvc import _decide, pvc_rho_decide

ROLE_ORIGINAL = "original"
ROLE_PENDANT = "pendant"
ROLE_STAR_CENTER = "star_center"
ROLE_STAR_LEAF = "star_leaf"
ROLE_PATH = "path_vertex"


@dataclass(frozen=True)
class GadgetInstance:
    """The star/path gadget H with its calibration parameters.

    Vertex layout: original vertices keep ids 0..n-1, pendants follow
    (vertex v owns n+3v..n+3v+2), then the star (center first), then the
    path (its attachment end first).
    """

    graph: Graph
    rho: Fraction
    r: int
    s: int
    star_center: int
    path_end: int
    pendant_anchor: int
    roles: tuple[str, ...]


def _pendant_edges(n: int) -> list[tuple[int, int]]:
    # vertex v owns pendants n + 3v .. n + 3v + 2
    return [(v, n + 3 * v + j) for v in range(n) for j in range(3)]


def _check_order(n: int, r: int, s: int) -> int:
    """The gadget's order 4n + r + 1 + s; above ``MAX_VERTICES`` it raises."""
    order = 4 * n + r + 1 + s
    if order > MAX_VERTICES:
        raise GadgetConstructionError(
            f"gadget order {order} (r={r}, s={s}) exceeds the limit of {MAX_VERTICES} vertices"
        )
    return order


def _layout(n: int, r: int, s: int):
    """(roles, star_center, path_end, pendant_anchor, edges) of the gadget with
    n original vertices, r star leaves and s path vertices; ``edges`` are all
    but the original-original ones, normalized (u < v). Refuses an order above
    ``MAX_VERTICES`` before building anything."""
    order = _check_order(n, r, s)
    star_center = 4 * n
    path_end = star_center + 1 + r
    pendant_anchor = n  # lowest-id pendant (belongs to original vertex 0)
    roles = ((ROLE_ORIGINAL,) * n + (ROLE_PENDANT,) * (3 * n) + (ROLE_STAR_CENTER,)
             + (ROLE_STAR_LEAF,) * r + (ROLE_PATH,) * s)
    edges = [
        *_pendant_edges(n),
        *((star_center, leaf) for leaf in range(star_center + 1, path_end)),
        *((v, v + 1) for v in range(path_end, order - 1)),
        (star_center, path_end),
        (pendant_anchor, star_center),
    ]
    return roles, star_center, path_end, pendant_anchor, edges


def pendant_triple_augment(graph: Graph) -> tuple[Graph, dict[int, str]]:
    """Attach three pendant vertices to every original vertex.

    The result has 4n vertices and m + 3n edges; original ids are unchanged
    and vertex v's pendants are n + 3v .. n + 3v + 2.
    """
    n = graph.n
    roles = {v: ROLE_ORIGINAL if v < n else ROLE_PENDANT for v in range(4 * n)}
    # the graph's edges and the pendant edges are normalized and disjoint
    return Graph._assemble(4 * n, [*graph.edges, *_pendant_edges(n)]), roles


def _star_size(n: int, rho: Fraction) -> int:
    # r = ceil(rho / (1 - rho) * (n(n - 1)/2 + 3n)) + n + 3, in integers
    a, b = rho.numerator, rho.denominator
    return -(-a * (n * (n - 1) // 2 + 3 * n) // (b - a)) + n + 3


def gadget_parameters(graph: Graph, k: int, t: int, rho: Rational) -> tuple[int, int]:
    """Exact star size r and path length s for the given instance.

    r = ceil(rho / (1 - rho) * (n(n - 1)/2 + 3n)) + n + 3 and
    s = floor((t + 3k + (1 - rho) r + 1 - rho (m + 3n)) / rho), computed in
    integers from rho = a/b in lowest terms. Refuses what ``build_gadget``
    refuses, with the same error, and builds nothing.
    """
    family = _GadgetFamily(graph, rho)
    s = family.path_length(*_check_instance(graph, k, t))
    _check_order(graph.n, family.r, s)
    return family.r, s


class _GadgetFamily:
    """``build_gadget(graph, k, t, rho)`` for every (k, t) of one (graph, rho).

    Those gadgets differ only in their path, whose vertices hold the highest
    ids. So the s = 1 gadget is laid down once, on the first build, and each
    gadget is it with the rest of the path appended: its sorted edges are
    the fixed ones followed by the path's, and every vertex before the path
    end keeps its neighbour tuple. Each build makes a new graph object, so
    no two gadgets share solver state.
    """

    def __init__(self, graph: Graph, rho: Rational):
        rho = _fraction_between(rho, 0, 1, "rho")
        if graph.n < 1:
            raise ValueError("gadget needs at least one original vertex")
        self.graph, self.rho, self.r = graph, rho, _star_size(graph.n, rho)
        self._fixed = None  # the s = 1 gadget, laid down on the first build

    def path_length(self, k: int, t: int) -> int:
        # s for a (k, t) the caller has checked, in integers from rho = a/b
        (a, b), graph, r = self.rho.as_integer_ratio(), self.graph, self.r
        return (b * (t + 3 * k + r + 1) - a * (r + graph.m + 3 * graph.n)) // a

    def __call__(self, k: int, t: int) -> GadgetInstance:
        graph, rho, r = self.graph, self.rho, self.r
        n = graph.n
        # s >= 1: r makes (1 - rho) r >= rho (m + 3n), so the numerator of s
        # (``gadget_parameters``) is at least t + 3k + 1 >= 1 > rho
        s = self.path_length(*_check_instance(graph, k, t))
        order = _check_order(n, r, s)
        if self._fixed is None:
            roles, star_center, path_end, pendant_anchor, edges = _layout(n, r, 1)
            # the layout's edges are normalized, distinct, and each has an end >= n
            fixed = Graph._assemble(len(roles), [*graph.edges, *edges])
            self._fixed = fixed, roles, star_center, path_end, pendant_anchor
        fixed, roles, star_center, path_end, pendant_anchor = self._fixed
        # the i-th path vertex's neighbours: lower[i], then upper[i] unless it is last
        lower, upper = (star_center, *range(path_end, order - 1)), range(path_end + 1, order)
        gadget = Graph(
            order,
            fixed.edges + tuple(zip(lower[1:], upper)),
            fixed.adjacency[:path_end] + (*zip(lower, upper), lower[-1:]),
        )
        roles += (ROLE_PATH,) * (s - 1)
        return GadgetInstance(gadget, rho, r, s, star_center, path_end, pendant_anchor, roles)


def build_gadget(graph: Graph, k: int, t: int, rho: Rational) -> GadgetInstance:
    """Construct the star/path gadget H for the instance (graph, k, t, rho).

    H is the pendant-augmented graph plus a star on r leaves and a path on
    s vertices, joined by two edges: star center to path end, and star
    center to the lowest-id pendant. A target above m raises
    InfeasibleTargetError, as ``pvc`` does. An order 4n + r + 1 + s above
    ``graph.MAX_VERTICES`` is a construction failure and raises, reporting
    the parameters, before anything is built; the path length s is at least
    1 for every valid instance. A float rho raises TypeError. This is one
    ``_GadgetFamily`` called once; a caller building many gadgets of one
    (graph, rho) keeps the family and calls it for each.
    """
    return _GadgetFamily(graph, rho)(k, t)


def _sidecar_fields(inst: GadgetInstance) -> dict:
    return {
        "rho": str(inst.rho),
        "r": inst.r,
        "s": inst.s,
        "star_center": inst.star_center,
        "path_end": inst.path_end,
        "pendant_anchor": inst.pendant_anchor,
        "roles": list(inst.roles),
    }


def gadget_sidecar_json(inst: GadgetInstance) -> str:
    """Byte-stable JSON sidecar carrying the gadget parameters and roles."""
    return json.dumps(_sidecar_fields(inst), indent=2, sort_keys=True) + "\n"


def gadget_edge_list(inst: GadgetInstance) -> str:
    return to_edge_list_text(inst.graph)


def load_gadget(edge_list_text: str, sidecar_text: str) -> GadgetInstance:
    """Rebuild a gadget from its two serialized parts, which must match the
    layout of n (the sidecar's ``original`` roles), r and s in order, roles,
    named ids and non-original edges, with 0 < rho < 1 and r the star size
    for (n, rho). Any fault, or a sidecar field missing or malformed, raises
    GadgetConstructionError naming it."""
    graph = parse_graph(edge_list_text)
    try:
        payload = json.loads(sidecar_text)
    except json.JSONDecodeError as exc:
        raise GadgetConstructionError(f"sidecar is not valid JSON: {exc}") from None
    if not isinstance(payload, dict):
        raise GadgetConstructionError(f"sidecar must be a JSON object, not {type(payload).__name__}")

    def field(name, convert):
        if name not in payload:
            raise GadgetConstructionError(f"sidecar has no {name!r} field")
        try:
            return convert(payload[name])
        except (TypeError, ValueError, ZeroDivisionError):
            raise GadgetConstructionError(f"sidecar field {name!r} is malformed: {payload[name]!r}") from None

    inst = GadgetInstance(
        graph=graph,
        rho=field("rho", Fraction),
        r=field("r", int),
        s=field("s", int),
        star_center=field("star_center", int),
        path_end=field("path_end", int),
        pendant_anchor=field("pendant_anchor", int),
        roles=field("roles", tuple),
    )
    if not (0 < inst.rho < 1):
        raise GadgetConstructionError(f"rho must lie strictly between 0 and 1, got {inst.rho}")
    n = inst.roles.count(ROLE_ORIGINAL)
    r = _star_size(n, inst.rho)
    if inst.r != r:
        raise GadgetConstructionError(f"star size r={inst.r} does not match r={r} for rho={inst.rho}, n={n}")
    roles, star_center, path_end, pendant_anchor, edges = _layout(n, inst.r, inst.s)
    if graph.n != len(roles):
        raise GadgetConstructionError(f"gadget order {graph.n} does not match 4n + r + 1 + s = {len(roles)}")
    if inst.roles != roles:
        raise GadgetConstructionError(f"roles do not match the layout for n={n}, r={inst.r}, s={inst.s}")
    for name, want, rule in (
        ("star_center", star_center, "star center must follow the pendants"),
        ("path_end", path_end, "path end must follow the star leaves"),
        ("pendant_anchor", pendant_anchor, "anchor must attach to the star center"),
    ):
        vertex = getattr(inst, name)
        if not 0 <= vertex < graph.n:
            raise GadgetConstructionError(f"{name} {vertex} is not a vertex id below n={graph.n}")
        if vertex != want:
            raise GadgetConstructionError(f"{rule}: {name} is {vertex}, the layout's is {want}")
    wrong = {e for e in graph.edges if e[1] >= n}.symmetric_difference(edges)
    if wrong:
        edge = min(wrong)
        kind = "unexpected" if graph.has_edge(*edge) else "missing"
        raise GadgetConstructionError(f"edge set does not match the layout: {kind} edge {edge}")
    return inst


def _lemma1_holds(graph: Graph, augmented: Graph, k: int, t: int) -> bool:
    # both sides are valid instances once 0 <= k <= n and 0 <= t <= m, which
    # the caller checks: k <= 4n and t + 3k <= m + 3n
    return _decide(graph, t, k) == _decide(augmented, t + 3 * k, k)


def verify_lemma1(graph: Graph, k: int, t: int) -> bool:
    """Check that pendant augmentation preserves the decision outcome.

    Compares <G, k, t> with <G', k, t + 3k>; both sides must agree for
    every valid instance.
    """
    k, t = _check_instance(graph, k, t)
    augmented, _ = pendant_triple_augment(graph)
    return _lemma1_holds(graph, augmented, k, t)


def verify_lemma2(graph: Graph, k: int, t: int, rho: Rational) -> bool:
    """Check that the star/path gadget preserves the decision outcome.

    Compares <G', k, t + 3k> with the fractional instance <H, k + 1> at
    fraction rho; both sides must agree.
    """
    inst = build_gadget(graph, k, t, rho)  # checks rho, 0 <= k <= n and 0 <= t <= m
    augmented, _ = pendant_triple_augment(graph)
    return _decide(augmented, t + 3 * k, k) == pvc_rho_decide(inst.graph, k + 1, inst.rho)


def reduction_chain(graph: Graph, k: int, t: int, rho: Rational) -> tuple[GadgetInstance, bool]:
    """Build G -> G' -> H and report end-to-end decision equivalence."""
    inst = build_gadget(graph, k, t, rho)  # checks rho, 0 <= k <= n and 0 <= t <= m
    return inst, _decide(graph, t, k) == pvc_rho_decide(inst.graph, k + 1, inst.rho)
