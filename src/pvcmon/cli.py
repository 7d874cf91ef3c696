"""Command-line front end.

Subcommands: pvc, smon, sdyn, simulate, reduce, verify. All output is a
single JSON report on stdout; exit codes are 0 (success), 1 (a verify
battery found a counterexample), 2 (input error), 3 (infeasible
parameters).
"""

from __future__ import annotations

import argparse
import json
import re
import sys
import time
from fractions import Fraction
from pathlib import Path

from .errors import GadgetConstructionError, GraphFormatError, InfeasibleTargetError
from .graph import Graph, coverage, parse_graph
from .monopoly import (
    ThresholdAssignment,
    is_dynamic_monopoly,
    is_monopoly,
    sdyn,
    sdyn_via_subgraph,
    simulate_spread,
    smon,
)
from .pvc import (
    EXACT_MAX_N,
    METHOD_DEGREE_GREEDY,
    METHOD_EXACT,
    METHOD_HEURISTIC,
    METHOD_TREE,
    dominant_view,
    pick_solver,
    pvc_degree_greedy,
    pvc_exact,
    pvc_greedy_upper,
    pvc_tree,
)
from .reductions import build_gadget, gadget_edge_list, gadget_sidecar_json
from .verify import run_suite

ORACLE_GUARD_DEFAULT = 14
_AUTO_SOLVER = {METHOD_EXACT: "exact", METHOD_TREE: "tree", METHOD_DEGREE_GREEDY: "degreeGreedy"}

_RATIONAL_RE = re.compile(r"^[+-]?\d+(/\d+)?$")


def _parse_rational(text: str) -> Fraction:
    if not _RATIONAL_RE.match(text.strip()):
        raise ValueError(
            f"expected an integer or 'p/q' rational (decimals are rejected), got {text!r}"
        )
    return Fraction(text.strip())


def _read_graph(path: str) -> Graph:
    return parse_graph(Path(path).read_text(encoding="utf-8"))


def _read_thresholds(path: str, graph: Graph) -> ThresholdAssignment:
    values = []
    for lineno, raw in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        try:
            values.append(int(line))
        except ValueError:
            raise ValueError(f"threshold file line {lineno}: expected an integer") from None
    return ThresholdAssignment.for_graph(graph, values)


def _ordered(vertices, graph: Graph, seed_order: str) -> list[int]:
    if seed_order == "degree":
        deg = graph.degrees
        return sorted(vertices, key=lambda v: (-deg[v], v))
    return sorted(vertices)


def _effective_guard(requested, default: int) -> int:
    if requested is None:
        return default
    if requested > default:
        print(
            f"warning: raising the size guard to {requested} (default {default});"
            " expect exponential work",
            file=sys.stderr,
        )
    return requested


def _cmd_pvc(args, graph: Graph) -> dict:
    t = args.target
    guard = _effective_guard(args.guard, EXACT_MAX_N)
    solver = args.solver
    if solver == "auto":
        # the guard caps branch-and-bound only: the polynomial solvers take
        # over from it, and greedy answers what neither covers
        solver = _AUTO_SOLVER[pick_solver(graph, min(guard, EXACT_MAX_N))]
        if solver == "exact" and graph.n > guard:
            solver = "greedy"

    if solver == "tree":
        res = pvc_tree(graph, t)
    elif solver == "degreeGreedy":
        view = dominant_view(graph)
        if view is None:
            raise ValueError("degreeGreedy requires a bipartite graph")
        res = pvc_degree_greedy(view, graph, t)
    elif solver == "greedy":
        res = pvc_greedy_upper(graph, t)
    else:
        if graph.n > guard:
            raise ValueError(
                f"exact solver guard: n={graph.n} > {guard}; raise it with --guard"
            )
        res = pvc_exact(graph, t)

    if coverage(graph, res.witness) < t:
        raise AssertionError("witness failed re-verification")
    return {
        "size": res.size,
        "witness": _ordered(res.witness, graph, args.seed_order),
        "achieved_coverage": res.achieved_coverage,
        "method": res.method,
        "upper_bound": res.method == METHOD_HEURISTIC,
    }


def _cmd_smon(args, graph: Graph) -> dict:
    t = _parse_rational(args.threshold_average)
    result = smon(graph, t)
    if not is_monopoly(graph, result.tau, result.monopoly):
        raise AssertionError("witness failed re-verification")
    return {
        "size": result.size,
        "monopoly": _ordered(result.monopoly, graph, args.seed_order),
        "tau": list(result.tau.values),
        "tau_total": result.tau.total,
        "required_total": str(graph.n * t),
        "verified": True,
    }


def _cmd_sdyn(args, graph: Graph) -> dict:
    t = _parse_rational(args.threshold_average)
    result = sdyn(graph, t)
    if not is_dynamic_monopoly(graph, result.witness_tau, result.seed):
        raise AssertionError("witness failed re-verification")
    payload = {
        "size": result.size,
        "seed": _ordered(result.seed, graph, args.seed_order),
        "tau": list(result.witness_tau.values),
        "tau_total": result.witness_tau.total,
        "required_total": str(graph.n * t),
        "verified": True,
    }
    if args.oracle:
        guard = _effective_guard(args.guard, ORACLE_GUARD_DEFAULT)
        oracle_size, sparse = sdyn_via_subgraph(graph, t, max_n=guard)
        payload["oracle"] = {
            "size": oracle_size,
            "agrees": oracle_size == result.size,
            "sparse_subgraph": _ordered(sparse, graph, args.seed_order),
        }
        if not payload["oracle"]["agrees"]:
            raise AssertionError("enumeration route disagrees with the solver")
    return payload


def _cmd_simulate(args, graph: Graph) -> dict:
    tau = _read_thresholds(args.thresholds, graph)
    trace = simulate_spread(graph, tau, args.seed or [])
    return {
        "layers": [_ordered(layer, graph, args.seed_order) for layer in trace.layers],
        "rounds": trace.rounds,
        "activated_all": trace.activated_all,
    }


def _cmd_reduce(args, graph: Graph) -> dict:
    rho = _parse_rational(args.rho)
    inst = build_gadget(graph, args.budget, args.target, rho)
    payload = {
        "rho": str(inst.rho),
        "r": inst.r,
        "s": inst.s,
        "gadget_n": inst.graph.n,
        "gadget_m": inst.graph.m,
        "star_center": inst.star_center,
        "path_end": inst.path_end,
        "pendant_anchor": inst.pendant_anchor,
    }
    if args.output:
        edge_path = Path(args.output + ".edgelist")
        meta_path = Path(args.output + ".json")
        edge_path.write_text(gadget_edge_list(inst), encoding="utf-8")
        meta_path.write_text(gadget_sidecar_json(inst), encoding="utf-8")
        payload["files"] = {"edge_list": str(edge_path), "sidecar": str(meta_path)}
    else:
        payload["edge_list"] = gadget_edge_list(inst)
        payload["sidecar"] = json.loads(gadget_sidecar_json(inst))
    return payload


def _cmd_verify(args) -> tuple[dict, bool]:
    reports = run_suite(args.suite, size_bound=args.size_bound, n_graphs=args.count)
    payload = {"reports": [r.to_payload() for r in reports]}
    return payload, all(r.passed for r in reports)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pvcmon",
        description="Partial vertex covers and smallest monopolies with average-threshold constraints.",
    )
    parser.add_argument("--guard", type=int, default=None,
                        help="override the size guard for exact solving / enumeration")
    parser.add_argument("--seed-order", choices=("id", "degree"), default="id",
                        help="ordering of emitted vertex lists")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("pvc", help="minimum partial vertex cover")
    p.add_argument("graph")
    p.add_argument("-t", "--target", type=int, required=True, help="edge coverage target")
    p.add_argument("--solver", choices=("auto", "exact", "tree", "greedy", "degreeGreedy"),
                   default="auto")

    p = sub.add_parser("smon", help="smallest static monopoly for an average threshold")
    p.add_argument("graph")
    p.add_argument("-t", "--threshold-average", required=True, help="rational 'p/q' or integer")

    p = sub.add_parser("sdyn", help="smallest dynamic monopoly for an average threshold")
    p.add_argument("graph")
    p.add_argument("-t", "--threshold-average", required=True, help="rational 'p/q' or integer")
    p.add_argument("--oracle", action="store_true",
                   help="also run the subset-enumeration route and compare")

    p = sub.add_parser("simulate", help="run the deterministic threshold spread")
    p.add_argument("graph")
    p.add_argument("thresholds", help="file with one integer threshold per line")
    p.add_argument("--seed", type=int, nargs="*", default=None, help="seed vertex ids")

    p = sub.add_parser("reduce", help="build the star/path gadget instance")
    p.add_argument("graph")
    p.add_argument("-k", "--budget", type=int, required=True)
    p.add_argument("-t", "--target", type=int, required=True)
    p.add_argument("--rho", required=True, help="fraction 'p/q' strictly between 0 and 1")
    p.add_argument("-o", "--output", default=None,
                   help="path prefix for the .edgelist and .json outputs")

    p = sub.add_parser("verify", help="run a verification battery")
    p.add_argument("suite", choices=("lemma1", "lemma2", "theorems", "all"))
    p.add_argument("--size-bound", type=int, default=None)
    p.add_argument("--count", type=int, default=None,
                   help="number of random graphs for the theorems suite")

    return parser


_parser = None


def main(argv=None) -> int:
    # one parser per process, built on the first call rather than at import:
    # parse_args fills a fresh namespace each time, so no call sees another's
    global _parser
    if _parser is None:
        _parser = build_parser()
    args = _parser.parse_args(argv)
    started = time.perf_counter()
    report = {"command": args.command}
    ok = True
    try:
        if args.command == "verify":
            result, ok = _cmd_verify(args)
        else:
            graph = _read_graph(args.graph)
            report["input"] = {"n": graph.n, "m": graph.m}
            if args.command == "pvc":
                result = _cmd_pvc(args, graph)
            elif args.command == "smon":
                result = _cmd_smon(args, graph)
            elif args.command == "sdyn":
                result = _cmd_sdyn(args, graph)
            elif args.command == "simulate":
                result = _cmd_simulate(args, graph)
            elif args.command == "reduce":
                result = _cmd_reduce(args, graph)
            else:  # pragma: no cover
                raise AssertionError(args.command)
    except InfeasibleTargetError as exc:
        print(f"error: infeasible parameters: {exc}", file=sys.stderr)
        return 3
    except (GraphFormatError, GadgetConstructionError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    report["result"] = result
    report["elapsed_seconds"] = round(time.perf_counter() - started, 6)
    print(json.dumps(report, indent=2, sort_keys=True))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
