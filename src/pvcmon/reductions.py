"""Reduction gadgets tying budgeted partial cover to fractional partial cover.

Two constructions are provided, with exhaustive desk-scale verifiers:

* ``pendant_triple_augment`` attaches three degree-one vertices to every
  original vertex, shifting any coverage target by exactly 3k.
* ``build_gadget`` glues a large star and a calibrated path onto the
  augmented graph, turning a budgeted instance into a fixed-fraction one.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction

from .errors import GadgetConstructionError
from .graph import Graph, Rational, _coerce_rational, parse_graph, to_edge_list_text
from .pvc import PvcbInstance, pvc_decide, pvc_rho_decide

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


def pendant_triple_augment(graph: Graph) -> tuple[Graph, dict[int, str]]:
    """Attach three pendant vertices to every original vertex.

    The result has 4n vertices and m + 3n edges; original ids are unchanged
    and vertex v's pendants are n + 3v .. n + 3v + 2.
    """
    n = graph.n
    roles = {v: ROLE_ORIGINAL if v < n else ROLE_PENDANT for v in range(4 * n)}
    return Graph.from_edges(4 * n, [*graph.edges, *_pendant_edges(n)]), roles


def gadget_parameters(graph: Graph, k: int, t: int, rho: Rational) -> tuple[int, int]:
    """Exact star size r and path length s for the given instance.

    r = ceil(rho / (1 - rho) * (n(n - 1)/2 + 3n)) + n + 3 and
    s = floor((t + 3k + (1 - rho) r + 1 - rho (m + 3n)) / rho), computed in
    integers from rho = a/b in lowest terms.
    """
    rho = _coerce_rational(rho)
    a, b = rho.numerator, rho.denominator
    n, m = graph.n, graph.m
    r = -(-a * (n * (n - 1) // 2 + 3 * n) // (b - a)) + n + 3
    s = (b * (t + 3 * k + r + 1) - a * (r + m + 3 * n)) // a
    return r, s


def build_gadget(graph: Graph, k: int, t: int, rho: Rational) -> GadgetInstance:
    """Construct the star/path gadget H for the instance (graph, k, t, rho).

    H is the pendant-augmented graph plus a star on r leaves and a path on
    s vertices, joined by two edges: star center to path end, and star
    center to the lowest-id pendant. A computed path length below 1 is a
    construction failure and raises, reporting the parameters. A float rho
    raises TypeError.
    """
    rho = _coerce_rational(rho)
    if not (0 < rho < 1):
        raise ValueError(f"rho must lie strictly between 0 and 1, got {rho}")
    if graph.n < 1:
        raise ValueError("gadget needs at least one original vertex")
    if k < 0 or t < 0:
        raise ValueError("k and t must be nonnegative")
    if k > graph.n:
        raise ValueError(f"budget k={k} exceeds vertex count {graph.n}")
    n, m = graph.n, graph.m
    r, s = gadget_parameters(graph, k, t, rho)
    if s < 1:
        raise GadgetConstructionError(
            f"path length s={s} < 1 for n={n}, m={m}, k={k}, t={t}, rho={rho}, r={r}"
        )
    edges = [*graph.edges, *_pendant_edges(n)]
    roles = [ROLE_ORIGINAL] * n + [ROLE_PENDANT] * (3 * n)

    star_center = 4 * n
    roles.append(ROLE_STAR_CENTER)
    for i in range(r):
        edges.append((star_center, star_center + 1 + i))
        roles.append(ROLE_STAR_LEAF)

    path_end = star_center + 1 + r
    for i in range(s):
        roles.append(ROLE_PATH)
        if i + 1 < s:
            edges.append((path_end + i, path_end + i + 1))

    pendant_anchor = n  # lowest-id pendant (belongs to original vertex 0)
    edges.append((star_center, path_end))
    edges.append((star_center, pendant_anchor))

    gadget = Graph.from_edges(4 * n + r + 1 + s, edges)
    instance = GadgetInstance(
        graph=gadget,
        rho=rho,
        r=r,
        s=s,
        star_center=star_center,
        path_end=path_end,
        pendant_anchor=pendant_anchor,
        roles=tuple(roles),
    )
    _validate_instance(instance)
    return instance


def _validate_instance(inst: GadgetInstance) -> None:
    roles = inst.roles
    g = inst.graph
    if len(roles) != g.n:
        raise GadgetConstructionError("role map length does not match the gadget order")
    n0 = roles.count(ROLE_ORIGINAL)
    counts = {
        ROLE_PENDANT: 3 * n0,
        ROLE_STAR_CENTER: 1,
        ROLE_STAR_LEAF: inst.r,
        ROLE_PATH: inst.s,
    }
    for role, expected in counts.items():
        if roles.count(role) != expected:
            raise GadgetConstructionError(f"expected {expected} vertices with role {role}")
    m0 = sum(
        1 for u, v in g.edges if roles[u] == ROLE_ORIGINAL and roles[v] == ROLE_ORIGINAL
    )
    if g.n != 4 * n0 + inst.r + 1 + inst.s:
        raise GadgetConstructionError("gadget order does not match 4n + r + 1 + s")
    if g.m != m0 + 3 * n0 + inst.r + inst.s + 1:
        raise GadgetConstructionError("gadget size does not match m + 3n + r + s + 1")
    if g.degree(inst.star_center) != inst.r + 2:
        raise GadgetConstructionError("star center must have degree r + 2")
    if inst.r < n0 + 3:
        raise GadgetConstructionError("star size must be at least n + 3")
    if roles[inst.pendant_anchor] != ROLE_PENDANT:
        raise GadgetConstructionError("anchor must be a pendant vertex")
    if inst.star_center not in g.adjacency[inst.path_end]:
        raise GadgetConstructionError("path end must attach to the star center")


def gadget_sidecar_json(inst: GadgetInstance) -> str:
    """Byte-stable JSON sidecar carrying the gadget parameters and roles."""
    payload = {
        "rho": str(inst.rho),
        "r": inst.r,
        "s": inst.s,
        "star_center": inst.star_center,
        "path_end": inst.path_end,
        "pendant_anchor": inst.pendant_anchor,
        "roles": list(inst.roles),
    }
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def gadget_edge_list(inst: GadgetInstance) -> str:
    return to_edge_list_text(inst.graph)


def load_gadget(edge_list_text: str, sidecar_text: str) -> GadgetInstance:
    """Rebuild and re-validate a gadget from its two serialized parts.

    A sidecar that is not a JSON object, or that lacks a field or holds
    one of the wrong type, raises GadgetConstructionError naming it.
    """
    graph = parse_graph(edge_list_text)
    payload = json.loads(sidecar_text)
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
    _validate_instance(inst)
    return inst


def _lemma1_holds(graph: Graph, augmented: Graph, k: int, t: int) -> bool:
    return pvc_decide(PvcbInstance(graph, k, t)) == pvc_decide(PvcbInstance(augmented, k, t + 3 * k))


def verify_lemma1(graph: Graph, k: int, t: int, max_n: int = 8) -> bool:
    """Check that pendant augmentation preserves the decision outcome.

    Compares <G, k, t> with <G', k, t + 3k> by exact solving; both sides
    must agree for every valid instance.
    """
    if graph.n > max_n:
        raise ValueError(f"exact-solving guard: n={graph.n} > {max_n}")
    augmented, _ = pendant_triple_augment(graph)
    return _lemma1_holds(graph, augmented, k, t)


def verify_lemma2(graph: Graph, k: int, t: int, rho: Rational, max_n: int = 6) -> bool:
    """Check that the star/path gadget preserves the decision outcome.

    Compares <G', k, t + 3k> with the fractional instance <H, k + 1> at
    fraction rho; both sides must agree.
    """
    rho = _coerce_rational(rho)
    if graph.n > max_n:
        raise ValueError(f"exact-solving guard: n={graph.n} > {max_n}")
    augmented, _ = pendant_triple_augment(graph)
    inst = build_gadget(graph, k, t, rho)
    return pvc_decide(PvcbInstance(augmented, k, t + 3 * k)) == pvc_rho_decide(inst.graph, k + 1, inst.rho)


def reduction_chain(
    graph: Graph, k: int, t: int, rho: Rational, max_n: int = 6
) -> tuple[GadgetInstance, bool]:
    """Build G -> G' -> H and report end-to-end decision equivalence."""
    rho = _coerce_rational(rho)
    if graph.n > max_n:
        raise ValueError(f"exact-solving guard: n={graph.n} > {max_n}")
    inst = build_gadget(graph, k, t, rho)
    left = pvc_decide(PvcbInstance(graph, k, t))
    right = pvc_rho_decide(inst.graph, k + 1, rho)
    return inst, left == right
