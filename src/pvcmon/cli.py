"""Command-line front end.

Subcommands: pvc, smon, sdyn, simulate, reduce, verify. All output is a
single JSON report on stdout; exit codes are 0 (success), 1 (a verify
battery found a counterexample), 2 (input error), 3 (infeasible
parameters), 5 (out of memory; 4 is reserved).
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
from .graph import Graph, _coerce_rational, _data_lines, coverage, parse_graph
from .monopoly import (
    ORACLE_GUARD_DEFAULT,
    ThresholdAssignment,
    _required_total,
    is_dynamic_monopoly,
    is_monopoly,
    sdyn,
    sdyn_via_subgraph,
    simulate_spread,
    smon,
)
from .pvc import (
    EXACT_MAX_N,
    METHOD_HEURISTIC,
    _route,
    pvc_degree_greedy,
    pvc_exact,
    pvc_greedy_upper,
    pvc_tree,
)
from .reductions import _sidecar_fields, build_gadget, gadget_edge_list, gadget_sidecar_json
from .verify import run_suite

_RATIONAL_RE = re.compile(r"^[+-]?\d+(/\d+)?$")


def _parse_rational(text: str) -> Fraction:
    # a part longer than the interpreter's int-parsing limit is refused here,
    # so the error names the input, not the interpreter setting
    if not _RATIONAL_RE.match(text.strip()):
        raise ValueError(
            f"expected an integer or 'p/q' rational (decimals are rejected), got {text!r}"
        )
    limit = sys.get_int_max_str_digits()
    digits = max(len(part.strip().lstrip("+-")) for part in text.split("/"))
    if limit and digits > limit:
        raise ValueError(f"rational has a part of {digits} digits, above the limit of {limit} digits")
    return _coerce_rational(text.strip())


def _read_text(path: str) -> str:
    return Path(path).read_text(encoding="utf-8-sig")  # drops a leading byte-order mark


def _read_graph(path: str) -> Graph:
    return parse_graph(_read_text(path))


def _read_thresholds(path: str, graph: Graph) -> ThresholdAssignment:
    values = []
    for lineno, line in _data_lines(_read_text(path)):
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


_SOLVERS = {"tree": pvc_tree, "greedy": pvc_greedy_upper, "degreeGreedy": pvc_degree_greedy}


def _cmd_pvc(args, graph: Graph) -> dict:
    t = args.target
    guard = _effective_guard(args.guard, EXACT_MAX_N)
    if args.solver == "auto":
        res = _route(graph, guard).solve(t)
    elif args.solver == "exact":
        if graph.n > guard:
            raise ValueError(
                f"exact solver guard: n={graph.n} > {guard}; raise it with --guard"
            )
        res = pvc_exact(graph, t)
    else:
        res = _SOLVERS[args.solver](graph, t)

    if coverage(graph, res.witness) < t:
        raise AssertionError("witness failed re-verification")
    return {
        "size": res.size,
        "witness": _ordered(res.witness, graph, args.seed_order),
        "achieved_coverage": res.achieved_coverage,
        "method": res.method,
        "upper_bound": res.method == METHOD_HEURISTIC,
    }


def _monopoly_payload(args, graph: Graph, t: Fraction, is_valid, key: str, members, tau) -> dict:
    # the keys smon and sdyn share, once ``is_valid`` re-checks the witness
    if not is_valid(graph, tau, members):
        raise AssertionError("witness failed re-verification")
    return {
        "size": len(members),
        key: _ordered(members, graph, args.seed_order),
        "tau": list(tau.values),
        "tau_total": tau.total,
        "required_total": str(graph.n * t),
        "verified": True,
    }


def _cmd_smon(args, graph: Graph) -> dict:
    t = _parse_rational(args.threshold_average)
    result = smon(graph, t)
    return _monopoly_payload(args, graph, t, is_monopoly, "monopoly", result.monopoly, result.tau)


def _cmd_sdyn(args, graph: Graph) -> dict:
    t = _parse_rational(args.threshold_average)
    if args.oracle:
        # the enumeration route runs first, so a graph above its guard is
        # refused before anything is solved; the average is checked before
        # the guard warning, in the order the solve alone checks it
        _required_total(graph, t)
        guard = _effective_guard(args.guard, ORACLE_GUARD_DEFAULT)
        oracle_size, sparse = sdyn_via_subgraph(graph, t, max_n=guard)
    result = sdyn(graph, t)
    payload = _monopoly_payload(args, graph, t, is_dynamic_monopoly, "seed", result.seed, result.witness_tau)
    if args.oracle:
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
    sidecar = _sidecar_fields(inst)
    payload = {**sidecar, "gadget_n": inst.graph.n, "gadget_m": inst.graph.m}
    del payload["roles"]
    if args.output:
        edge_path = Path(args.output + ".edgelist")
        meta_path = Path(args.output + ".json")
        edge_path.write_text(gadget_edge_list(inst), encoding="utf-8")
        meta_path.write_text(gadget_sidecar_json(inst), encoding="utf-8")
        payload["files"] = {"edge_list": str(edge_path), "sidecar": str(meta_path)}
    else:
        payload["edge_list"] = gadget_edge_list(inst)
        payload["sidecar"] = sidecar
    return payload


def _cmd_verify(args) -> tuple[dict, bool]:
    reports = run_suite(args.suite, size_bound=args.size_bound, n_graphs=args.count)
    payload = {"reports": [r.to_payload() for r in reports]}
    return payload, all(r.passed for r in reports)


_COMMANDS = {"pvc": _cmd_pvc, "smon": _cmd_smon, "sdyn": _cmd_sdyn,
             "simulate": _cmd_simulate, "reduce": _cmd_reduce}


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
    p.add_argument("--solver", choices=("auto", "exact", *_SOLVERS), default="auto")

    for name, kind in (("smon", "static"), ("sdyn", "dynamic")):
        p = sub.add_parser(name, help=f"smallest {kind} monopoly for an average threshold")
        p.add_argument("graph")
        p.add_argument("-t", "--threshold-average", required=True, help="rational 'p/q' or integer")
    # p is sdyn's parser now
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
                   help="number of random graphs for the theorems battery (theorems and all only)")

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
        if args.guard is not None and args.guard < 0:
            raise ValueError(f"guard must be at least 0, got {args.guard}")
        if args.guard is not None and not (getattr(args, "solver", None) in ("auto", "exact")
                                           or getattr(args, "oracle", False)):
            used = f"pvc --solver {args.solver}" if args.command == "pvc" else args.command
            raise ValueError(f"--guard applies only to pvc --solver auto|exact and sdyn --oracle, not {used}")
        if args.command == "verify":
            result, ok = _cmd_verify(args)
        else:
            graph = _read_graph(args.graph)
            report["input"] = {"n": graph.n, "m": graph.m}
            result = _COMMANDS[args.command](args, graph)
    except InfeasibleTargetError as exc:
        print(f"error: infeasible parameters: {exc}", file=sys.stderr)
        return 3
    except (GraphFormatError, GadgetConstructionError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        # not 1, which says a battery found a counterexample
        print(f"error: out of memory: {str(exc) or 'an allocation failed'}", file=sys.stderr)
        return 5
    report["result"] = result
    report["elapsed_seconds"] = round(time.perf_counter() - started, 6)
    print(json.dumps(report, indent=2, sort_keys=True))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
