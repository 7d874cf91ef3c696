"""The four benchmark workloads.

Each workload has four parts:

* ``inputs(seed, size)``: plain data (edge lists, commands) drawn from the
  benchmark's own seeded generator; the same seed gives the same inputs.
* ``setup(pv, data, workdir)``: the program's own set-up, timed as
  ``setup_s``: building pvcmon graphs, or writing graph files for the CLI.
* ``ops(pv, state, data)``: the closed-loop operations. Each looks its
  pvcmon function up on the module at call time, so traced wrappers see it.
* ``references(pv, data)`` and ``checker(pv, data, refs)``: independent
  answers, computed outside the timed phase, and the per-answer check.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
from fractions import Fraction
from itertools import combinations
from pathlib import Path

FULL, TINY = "full", "tiny"


def _rng(name: str, seed: int, part: str = "") -> random.Random:
    return random.Random(f"perfbench/{name}/{seed}/{part}")


def gnp_edges(n: int, p: float, rng: random.Random) -> list[tuple[int, int]]:
    return [e for e in combinations(range(n), 2) if rng.random() < p]


def gnm_edges(n: int, p: float, rng: random.Random) -> list[tuple[int, int]]:
    """G(n, p) conditioned on its expected edge count round(p * C(n, 2))."""
    pairs = list(combinations(range(n), 2))
    return sorted(rng.sample(pairs, round(p * len(pairs))))


def tree_edges(n: int, rng: random.Random) -> list[tuple[int, int]]:
    """Random recursive tree under a random labelling: each vertex, in a
    shuffled order, attaches to a uniformly chosen earlier one."""
    order = list(range(n))
    rng.shuffle(order)
    return [tuple(sorted((order[i], order[rng.randrange(i)]))) for i in range(1, n)]


def coverage_of(edges, witness) -> int:
    """Edges with an endpoint in ``witness`` (the benchmark's own count)."""
    chosen = set(witness)
    return sum(1 for u, v in edges if u in chosen or v in chosen)


def check_cover(n, edges, t, expected, size, witness, achieved) -> str | None:
    """Shared check for a partial-cover answer against its reference size."""
    if size != expected:
        return f"size {size} != reference {expected}"
    if len(set(witness)) != size or len(witness) != size:
        return "witness length does not match size"
    if any(not 0 <= v < n for v in witness):
        return "witness vertex out of range"
    cov = coverage_of(edges, witness)
    if cov < t:
        return f"witness covers {cov} < target {t}"
    if achieved != cov:
        return f"achieved_coverage {achieved} != recount {cov}"
    return None


def _pvc_answer(res):
    return (res.size, tuple(sorted(res.witness)), res.achieved_coverage)


# ---------------------------------------------------------------------------
# sweep: pvc_exact on tiny G(n, p), every target


class Sweep:
    name = "sweep"
    why = "per-query overhead: pvc_exact on G(n<=8, p) at every t; CSR build, greedy and dispatch dominate"
    sizes = {FULL: 1800, TINY: 12}
    ps = (0.2, 0.35, 0.5, 0.65, 0.8)
    stop_mid_pass = False  # queries run in test order: every t of one graph in turn
    rebuild_per_pass = True

    def inputs(self, seed, size):
        rng = _rng(self.name, seed)
        graphs = []
        for i in range(self.sizes[size]):
            n = 4 + i % 5
            p = self.ps[(i // 5) % len(self.ps)]
            graphs.append((n, gnp_edges(n, p, rng)))
        return {"graphs": graphs}

    def setup(self, pv, data, workdir):
        return [pv.graph.Graph.from_edges(n, edges) for n, edges in data["graphs"]]

    def ops(self, pv, graphs, data):
        pvc = pv.pvc
        return [
            (lambda g=g, t=t: pvc.pvc_exact(g, t))
            for g in graphs
            for t in range(g.m + 1)
        ]

    def queries(self, data):
        return [(gi, t) for gi, (_, edges) in enumerate(data["graphs"]) for t in range(len(edges) + 1)]

    normalize = staticmethod(_pvc_answer)

    def references(self, pv, data):
        profiles = [pv.oracles.cover_profile(pv.graph.Graph.from_edges(n, e)) for n, e in data["graphs"]]
        return [next(k for k, c in enumerate(profiles[gi]) if c >= t) for gi, t in self.queries(data)]

    def checker(self, pv, data, refs):
        queries = self.queries(data)
        graphs = data["graphs"]

        def check(i, answer):
            gi, t = queries[i]
            n, edges = graphs[gi]
            return check_cover(n, edges, t, refs[i], *answer)
        return check


# ---------------------------------------------------------------------------
# exact: pvc_exact on mid-size G(n, p), near the vertex-cover end


class Exact:
    name = "exact"
    why = "branch-and-bound search: pvc_exact on G(n=15-22, p=0.15-0.5) at t=0.7m..m; bb_min_cover is nearly all the time"
    # (p, n) cells, smaller n for denser graphs so each cell costs about the
    # same; B&B time is heavy-tailed, so many graphs a cell keep runs steady
    cells = {FULL: ((0.15, 22), (0.25, 18), (0.35, 17), (0.5, 15)),
             TINY: ((0.15, 12), (0.25, 10), (0.35, 9), (0.5, 8))}
    per_cell = {FULL: 128, TINY: 1}
    stop_mid_pass = True  # shuffled queries: any prefix of a pass is a fair sample
    rebuild_per_pass = True
    fractions = (Fraction(7, 10), Fraction(8, 10), Fraction(9, 10), Fraction(1))
    # subset enumeration is far cheaper than the ILP up to this order
    enumeration_max_n = 20

    def inputs(self, seed, size):
        rng = _rng(self.name, seed)
        graphs = [
            (n, gnm_edges(n, p, rng))
            for _ in range(self.per_cell[size])
            for p, n in self.cells[size]
        ]
        queries = [(gi, math.ceil(f * len(e))) for gi, (_, e) in enumerate(graphs) for f in self.fractions]
        _rng(self.name, seed, "order").shuffle(queries)
        return {"graphs": graphs, "queries": queries}

    def setup(self, pv, data, workdir):
        return [pv.graph.Graph.from_edges(n, edges) for n, edges in data["graphs"]]

    def ops(self, pv, graphs, data):
        pvc = pv.pvc
        return [(lambda g=graphs[gi], t=t: pvc.pvc_exact(g, t)) for gi, t in data["queries"]]

    normalize = staticmethod(_pvc_answer)

    def references(self, pv, data):
        from ilp import min_partial_cover

        graphs = data["graphs"]
        profiles = {}
        refs = []
        for gi, t in data["queries"]:
            n, edges = graphs[gi]
            if n > self.enumeration_max_n:
                refs.append(min_partial_cover(n, edges, t))
                continue
            if gi not in profiles:
                profiles[gi] = pv.oracles.cover_profile(pv.graph.Graph.from_edges(n, edges), max_n=n)
            refs.append(next(k for k, c in enumerate(profiles[gi]) if c >= t))
        return refs

    def checker(self, pv, data, refs):
        graphs, queries = data["graphs"], data["queries"]

        def check(i, answer):
            gi, t = queries[i]
            n, edges = graphs[gi]
            return check_cover(n, edges, t, refs[i], *answer)
        return check


# ---------------------------------------------------------------------------
# cli: pvcmon.cli.main on graph files, a mix of the user-facing commands


class Cli:
    name = "cli"
    why = "what users run: cli.main on files, pvc/smon/sdyn/reduce mix; parsing, tree DP, smon/sdyn via B&B on easy graphs"
    thresholds = ("1", "3/2", "19/10")
    stop_mid_pass = True  # shuffled commands
    rebuild_per_pass = False  # every command reads its graph file afresh
    sizes = {
        # 30 trees of 600 vertices give the latency tail a plateau of
        # tree-DP commands, so the 90th percentile falls on like-cost ops;
        # B&B time on trees is heavy-tailed and grows fast with n, so the
        # smon/sdyn trees stay at n = 25-26
        FULL: {"pvc_trees": (2000, 2000, 1500, 1500, 1000, 1000) + (600,) * 30 + (300,) * 4, "pvc_bip": 6,
               "mon_trees": (25, 26) * 15, "mon_bip": 4, "oracle": (8, 10, 12, 12), "reduce": 4},
        TINY: {"pvc_trees": (30,), "pvc_bip": 1, "mon_trees": (12,), "mon_bip": 1, "oracle": (6,), "reduce": 1},
    }

    def inputs(self, seed, size):
        from pvcmon import corpus  # pvcmon's own degree-dominant bipartite generator

        cfg = self.sizes[size]
        rng = _rng(self.name, seed)
        graphs, commands = [], []

        def add_graph(n, edges):
            graphs.append((n, sorted(edges)))
            return len(graphs) - 1

        for n in cfg["pvc_trees"]:
            gi = add_graph(n, tree_edges(n, rng))
            commands.append({"kind": "pvc", "graph": gi, "t": rng.randint(1, n - 1)})
        for _ in range(cfg["pvc_bip"]):
            g, _x = corpus.random_bipartite_degree_dominant(rng)
            gi = add_graph(g.n, list(g.edges))
            commands.append({"kind": "pvc", "graph": gi, "t": rng.randint(0, g.m)})
        mon_graphs = [add_graph(n, tree_edges(n, rng)) for n in cfg["mon_trees"]]
        for _ in range(cfg["mon_bip"]):
            g, _x = corpus.random_bipartite_degree_dominant(rng)
            mon_graphs.append(add_graph(g.n, list(g.edges)))
        for gi in mon_graphs:
            for kind in ("smon", "sdyn"):
                for t in self.thresholds:
                    commands.append({"kind": kind, "graph": gi, "t": t})
        for n in cfg["oracle"]:
            gi = add_graph(n, gnp_edges(n, 0.4, rng))
            t = rng.choice(("1", "3/2"))
            commands.append({"kind": "smon", "graph": gi, "t": t})
            commands.append({"kind": "sdyn", "graph": gi, "t": t, "oracle": True})
        for _ in range(cfg["reduce"]):
            n = rng.randint(3, 6)
            edges = gnp_edges(n, 0.5, rng)
            gi = add_graph(n, edges)
            commands.append({"kind": "reduce", "graph": gi, "k": rng.randint(0, n),
                             "t": rng.randint(0, len(edges)), "rho": rng.choice(("1/3", "1/2", "2/3"))})
        small = mon_graphs[0]
        m_small = len(graphs[small][1])
        commands += [
            {"kind": "pvc", "graph": small, "t": m_small + 1},          # target above m: exit 3
            {"kind": "smon", "graph": small, "t": str(2 * m_small + 1)},  # average above 2m/n: exit 3
            {"kind": "smon", "graph": small, "t": "0.5"},                # decimal average: exit 2
            {"kind": "pvc", "graph": -1, "t": 1},                        # missing file: exit 2
        ]
        _rng(self.name, seed, "order").shuffle(commands)
        return {"graphs": graphs, "commands": commands}

    def setup(self, pv, data, workdir: Path):
        workdir.mkdir(parents=True, exist_ok=True)
        paths = []
        for gi, (n, edges) in enumerate(data["graphs"]):
            path = workdir / f"g{gi}.edgelist"
            path.write_text(pv.graph.to_edge_list_text(pv.graph.Graph.from_edges(n, edges)), encoding="utf-8")
            paths.append(str(path))
        return [self.argv(cmd, paths, workdir) for cmd in data["commands"]]

    @staticmethod
    def argv(cmd, paths, workdir):
        path = paths[cmd["graph"]] if cmd["graph"] >= 0 else str(workdir / "absent.edgelist")
        if cmd["kind"] == "pvc":
            return ["pvc", path, "-t", str(cmd["t"])]
        if cmd["kind"] == "reduce":
            return ["reduce", path, "-k", str(cmd["k"]), "-t", str(cmd["t"]), "--rho", cmd["rho"]]
        argv = [cmd["kind"], path, "-t", cmd["t"]]
        return argv + ["--oracle"] if cmd.get("oracle") else argv

    def ops(self, pv, argvs, data):
        cli = pv.cli

        def run(argv):
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    rc = cli.main(argv)
                except SystemExit as exc:  # argparse rejects the command line
                    rc = exc.code
            return rc, out.getvalue()
        return [(lambda a=a: run(a)) for a in argvs]

    @staticmethod
    def normalize(answer):
        return answer

    def references(self, pv, data):
        from ilp import min_partial_cover

        refs = []
        for cmd in data["commands"]:
            if cmd["graph"] < 0:
                refs.append({"rc": 2})
                continue
            n, edges = data["graphs"][cmd["graph"]]
            m = len(edges)
            kind = cmd["kind"]
            if kind == "pvc":
                refs.append({"rc": 3} if cmd["t"] > m else {"rc": 0, "size": min_partial_cover(n, edges, cmd["t"])})
            elif kind == "reduce":
                refs.append(_gadget_reference(n, m, cmd["k"], cmd["t"], Fraction(cmd["rho"])))
            elif not _is_rational_text(cmd["t"]):
                refs.append({"rc": 2})
            else:
                nt = n * Fraction(cmd["t"])
                if nt > 2 * m:
                    refs.append({"rc": 3})
                    continue
                target = max(0, math.ceil(nt / 2) if kind == "smon" else math.ceil(nt) - m)
                refs.append({"rc": 0, "size": min_partial_cover(n, edges, target)})
        return refs

    def checker(self, pv, data, refs):
        graphs = [pv.graph.Graph.from_edges(n, e) for n, e in data["graphs"]]

        def check(i, answer):
            cmd, ref = data["commands"][i], refs[i]
            rc, out = answer
            if rc != ref["rc"]:
                return f"exit code {rc} != expected {ref['rc']}"
            if rc != 0:
                return "output printed on failure" if out else None
            result = json.loads(out)["result"]
            n, edges = data["graphs"][cmd["graph"]]
            graph = graphs[cmd["graph"]]
            kind = cmd["kind"]
            if kind == "pvc":
                return check_cover(n, edges, cmd["t"], ref["size"], result["size"], result["witness"],
                                   result["achieved_coverage"])
            if kind == "reduce":
                got = {k: result[k] for k in ("r", "s", "gadget_n", "gadget_m")}
                want = {k: ref[k] for k in got}
                if got != want:
                    return f"gadget {got} != reference {want}"
                header = result["edge_list"].split("\n", 1)[0]
                return None if header == f"{ref['gadget_n']} {ref['gadget_m']}" else "edge list header mismatch"
            required = math.ceil(n * Fraction(cmd["t"]))
            seed = result["monopoly" if kind == "smon" else "seed"]
            if result["size"] != ref["size"] or len(set(seed)) != ref["size"]:
                return f"{kind} size {result['size']} != reference {ref['size']}"
            if result["tau_total"] != sum(result["tau"]) or result["tau_total"] < required:
                return "witness thresholds do not reach the required total"
            checker = pv.monopoly.is_monopoly if kind == "smon" else pv.monopoly.is_dynamic_monopoly
            if not checker(graph, result["tau"], seed):
                return f"{kind} witness fails the definitional check"
            if cmd.get("oracle") and not (result["oracle"]["agrees"] and result["oracle"]["size"] == ref["size"]):
                return "enumeration oracle disagrees"
            return None
        return check


def _is_rational_text(text: str) -> bool:
    try:
        Fraction(text)
    except ValueError:
        return False
    return "." not in text


def _gadget_reference(n, m, k, t, rho) -> dict:
    """Star size r and path length s of the gadget, from the construction's formulas."""
    r = math.ceil(rho / (1 - rho) * (Fraction(n * (n - 1), 2) + 3 * n)) + n + 3
    s = math.floor((t + 3 * k + (1 - rho) * r + 1 - rho * (m + 3 * n)) / rho)
    if s < 1:
        return {"rc": 2}
    return {"rc": 0, "r": r, "s": s, "gadget_n": 4 * n + r + 1 + s, "gadget_m": m + 3 * n + r + s + 1}


# ---------------------------------------------------------------------------
# verify: the exhaustive and seeded verification batteries


THEOREM_SEED, WITNESS_SEED = 20240817, 7


class Verify:
    name = "verify"
    stop_mid_pass = False
    rebuild_per_pass = False
    why = "decision-heavy batteries: lemma1/lemma2/theorems/witness at default bounds; capped decides, Graph builds, oracles"
    bounds = {
        FULL: {"lemma1": 5, "lemma2": 4, "theorem_graphs": 500, "theorem_n": 8, "witness_graphs": 60, "witness_n": 8},
        TINY: {"lemma1": 3, "lemma2": 2, "theorem_graphs": 4, "theorem_n": 5, "witness_graphs": 3, "witness_n": 4},
    }

    def inputs(self, seed, size):
        # seed 0 reproduces `pvcmon verify all`
        return {"seed": seed, **self.bounds[size]}

    def setup(self, pv, data, workdir):
        return None

    def ops(self, pv, state, data):
        verify = pv.verify
        seed = data["seed"]
        return [
            lambda: verify.lemma1_battery(max_n=data["lemma1"]),
            lambda: verify.lemma2_battery(max_n=data["lemma2"]),
            lambda: verify.theorem_battery(n_graphs=data["theorem_graphs"], max_n=data["theorem_n"],
                                           seed=THEOREM_SEED + seed),
            lambda: verify.witness_identity_battery(n_graphs=data["witness_graphs"], max_n=data["witness_n"],
                                                    seed=WITNESS_SEED + seed),
        ]

    @staticmethod
    def normalize(report):
        return (report.suite, report.passed, report.instances)

    def references(self, pv, data):
        return [
            _lemma_instances(data["lemma1"], 1),
            _lemma_instances(data["lemma2"], 3),
            _theorem_instances(data["theorem_graphs"], data["theorem_n"], THEOREM_SEED + data["seed"]),
            _witness_instances(data["witness_graphs"], data["witness_n"], WITNESS_SEED + data["seed"]),
        ]

    def checker(self, pv, data, refs):
        def check(i, answer):
            suite, passed, instances = answer
            if not passed:
                return f"battery {suite} reported counterexamples"
            return None if instances == refs[i] else f"battery {suite}: {instances} instances != {refs[i]}"
        return check


def _lemma_instances(max_n: int, per_instance: int) -> int:
    """Instances over every labelled graph with n <= max_n, every k <= n and t <= m."""
    total = 0
    for n in range(1, max_n + 1):
        pairs = n * (n - 1) // 2
        total += (n + 1) * sum(math.comb(pairs, m) * (m + 1) for m in range(pairs + 1))
    return total * per_instance


def _theorem_instances(n_graphs, max_n, seed) -> int:
    rng = random.Random(seed)
    total = 0
    for _ in range(n_graphs):
        n = rng.randint(1, max_n)
        p = rng.choice((0.2, 0.35, 0.5, 0.65, 0.8))
        m = len(gnp_edges(n, p, rng))
        averages = {Fraction(a, q) for q in (1, 2, 3) for a in range(1, 2 * m + 1) if Fraction(a, q) * n <= 2 * m}
        total += len(averages)
    return total


def _witness_instances(n_graphs, max_n, seed) -> int:
    rng = random.Random(seed)
    total = 0
    for _ in range(n_graphs):
        n = rng.randint(1, max_n)
        gnp_edges(n, rng.choice((0.25, 0.5, 0.75)), rng)
        total += 1 << n
    return total


WORKLOADS = {w.name: w for w in (Sweep(), Exact(), Cli(), Verify())}
