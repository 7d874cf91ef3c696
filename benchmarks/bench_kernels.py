#!/usr/bin/env python3
"""Time the hot kernels (best of a few runs, numpy backend), then each
verification battery at its default bounds (best of three runs). Each row
starts after a full cyclic garbage collection.

    PYTHONPATH=src python3 benchmarks/bench_kernels.py [--json BENCH_kernels.json]

``--json PATH`` also writes every row's wall time, with the backend, the
Python and numpy versions and the CPU count, to PATH. The tree solver's
rows also count their ``kernels.minplus`` calls (``minplus_calls``) and
the first steps built without one (``first_steps``), and its path and
recursive rows give the call's tracemalloc peak
(``peak_bytes``); the dispatch rows count the graph walks each query makes
(``walks``), the decide and reduction-chain rows the ``solve_pvc`` calls
of one run (``solves``), the branch-and-bound rows and the rho-decide row
the search states ``kernels.bb_min_cover`` tested (``nodes``), and the
edgeless graph-build row the bytes per vertex its graph keeps
(``bytes_per_vertex``, by tracemalloc). None of these counts depends on
the machine. Each battery row gives the instances it checks (``calls``)
and their rate (``instances_per_second``).
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import random
import time
import tracemalloc
from fractions import Fraction

import numpy as np

from pvcmon import kernels, pvc
from pvcmon.corpus import (
    all_labeled_graphs,
    complete_bipartite,
    cycle_graph,
    path_graph,
    random_graph,
    random_recursive_tree,
    random_tree,
)
from pvcmon.graph import Graph, parse_graph, to_edge_list_text, walk
from pvcmon.monopoly import (
    dynamo_witness_tau,
    is_dynamic_monopoly,
    is_monopoly,
    monopoly_witness_tau,
    sdyn,
    sdyn_decide,
    smon,
    smon_decide,
    sparse_profile,
)
from pvcmon.oracles import cover_profile
from pvcmon.pvc import (
    PvcbInstance,
    _csr_arrays,
    pvc_decide,
    pvc_degree_greedy,
    pvc_greedy_upper,
    pvc_rho_decide,
    pvc_tree,
    solve_pvc,
)
from pvcmon.reductions import (
    _GadgetFamily,
    build_gadget,
    gadget_edge_list,
    gadget_parameters,
    gadget_sidecar_json,
    load_gadget,
    pendant_triple_augment,
    reduction_chain,
)
from pvcmon.verify import (
    DEFAULT_RHOS,
    _feasible_averages,
    _phi_total_profile,
    _theorem_profiles,
    lemma1_battery,
    lemma2_battery,
    theorem_battery,
    theorem_corpus,
    witness_identity_battery,
)


def _time(fn, *args, repeat=3):
    # a full collection first, so the garbage earlier rows left behind does
    # not set how often the cyclic collector runs inside this row
    gc.collect()
    best = float("inf")
    result = None
    for _ in range(repeat):
        t0 = time.perf_counter()
        result = fn(*args)
        best = min(best, time.perf_counter() - t0)
    return best, result


ROWS: list[dict] = []


def _row(name, secs, calls=1, **counts):
    # secs is the best time of the whole batch of ``calls`` calls; counts
    # (such as minplus_calls) do not depend on the machine
    ROWS.append({"name": name, "seconds": round(secs, 6), "calls": calls, **counts})
    per_call = f"{secs / calls * 1e6:>10.2f}us/call" if calls > 1 else ""
    extra = "".join(f"  {key}={value}" for key, value in counts.items())
    print(f"{name:<44} {secs * 1e3:>10.2f}ms {per_call}{extra}")


def bench_cover_profile():
    g = random_graph(18, 0.5, random.Random(7))
    eu = np.array([u for u, _ in g.edges], dtype=np.int64)
    ev = np.array([v for _, v in g.edges], dtype=np.int64)
    secs, _ = _time(kernels.cover_profile, g.n, eu, ev)
    _row(f"cover_profile n={g.n} m={g.m}", secs)


def bench_oracle_profiles():
    # the theorems battery's independent routes, each on its own, then the
    # battery's one enumeration per graph over its default corpus
    for n in (12, 14):
        g = random_graph(n, 0.5, random.Random(n))
        for fn in (cover_profile, _phi_total_profile, sparse_profile):
            secs, _ = _time(fn, g)
            _row(f"{fn.__name__.lstrip('_')} n={n} m={g.m}", secs)
    graphs = list(theorem_corpus())
    secs, _ = _time(lambda: [_theorem_profiles(g) for g in graphs])
    _row(f"theorem profiles default corpus ({len(graphs)} graphs)", secs, len(graphs))


def _lemma2_gadgets():
    # (gadget, k) for 40 lemma2-battery-shaped instances on 4 vertices
    rng = random.Random(2)
    gadgets = []
    for _ in range(40):
        base = random_graph(4, 0.6, rng)
        k = rng.randint(0, 3)
        t = rng.randint(0, base.m)
        gadgets.append((build_gadget(base, k, t, rng.choice((Fraction(1, 3), Fraction(1, 2), Fraction(2, 3)))), k))
    return gadgets


def _cli_queries():
    # the benchmark cli workload's pvc trees, each at a random target
    rng = random.Random(13)
    mix = (2000, 2000, 1500, 1500, 1000, 1000) + (600,) * 30 + (300,) * 4
    return [(g, rng.randint(1, g.m)) for g in (random_recursive_tree(n, rng) for n in mix)]


def _search_args(g, t):
    # the search pvc_exact runs: CSR arrays and the greedy's cover as incumbent
    indptr, nbrs = _csr_arrays(g)
    return g.n, indptr, nbrs, t, sorted(pvc_greedy_upper(g, t).witness)


def search_corpus():
    """bb_min_cover arguments for 64 seeded G(n, p), n = 15..22, at targets
    ceil(0.7m), ceil(0.8m), ceil(0.9m) and m (the golden node-count corpus)."""
    rng = random.Random(53)
    searches = []
    for _ in range(64):
        g = random_graph(rng.randint(15, 22), rng.choice((0.2, 0.3, 0.4, 0.5)), rng)
        for t in (math.ceil(0.7 * g.m), math.ceil(0.8 * g.m), math.ceil(0.9 * g.m), g.m):
            searches.append(_search_args(g, t))
    return searches


def bench_bb_search():
    # the lemma2 battery's right side: rho-decides on gadget graphs, which
    # the greedy and degree-sum shortcuts settle all 40 of, so solves and
    # nodes read 0; each timed run starts from fresh graph objects, so the
    # per-graph solver state is built inside the timing
    gadgets = _lemma2_gadgets()
    jobs = [(inst.graph, k + 1, inst.rho) for inst, k in gadgets]
    greedy_jobs = [(inst.graph, math.ceil(inst.rho * inst.graph.m)) for inst, _ in gadgets]

    def decide_all():
        return sum(pvc_rho_decide(_fresh(g), l, rho) for g, l, rho in jobs)

    secs, _ = _time(decide_all)
    _row(f"pvc_rho_decide {len(jobs)} gadgets", secs, len(jobs),
         solves=_calls(pvc, "solve_pvc", decide_all), nodes=_nodes(decide_all))
    # the vertex-cover end (t = m), searched to optimality below the greedy
    # incumbent as pvc_exact does
    g = random_graph(50, 0.15, random.Random(1))
    secs, (_, nodes) = _time(kernels.bb_min_cover, *_search_args(g, g.m))
    _row(f"bb_min_cover n={g.n} m={g.m} t=m", secs, nodes=nodes)
    # the golden node-count corpus as one batch, then a vertex-cover end
    # that only the forced-neighbour bound keeps short
    searches = search_corpus()
    secs, results = _time(lambda: [kernels.bb_min_cover(*args) for args in searches])
    _row(f"bb_min_cover corpus ({len(searches)} searches)", secs, len(searches),
         nodes=sum(nodes for _, nodes in results))
    g = random_graph(80, 0.08, random.Random(1))
    secs, (_, nodes) = _time(kernels.bb_min_cover, *_search_args(g, g.m))
    _row(f"bb_min_cover n={g.n} m={g.m} t=m", secs, nodes=nodes)
    # a fresh graph object for each call builds the graph's solver state (the
    # greedy from scratch and the degree prefix); the warm row reads it back
    secs, _ = _time(lambda: [pvc_greedy_upper(_fresh(g), target) for g, target in greedy_jobs])
    _row(f"pvc_greedy_upper {len(greedy_jobs)} gadgets", secs, len(greedy_jobs))
    secs, _ = _time(lambda: [pvc_greedy_upper(g, target) for g, target in greedy_jobs])
    _row(f"pvc_greedy_upper {len(greedy_jobs)} gadgets, warm", secs, len(greedy_jobs))


def bench_lemma1_decides():
    # the lemma1 battery's right side: <G', k, t + 3k> at every (k, t) on
    # pendant-augmented graphs; each timed run starts from fresh graph
    # objects, so the per-graph solver state is built inside the timing
    rng = random.Random(5)
    augmented = [
        (base.m, pendant_triple_augment(base)[0])
        for base in (random_graph(rng.randint(3, 6), rng.choice((0.3, 0.5, 0.8)), rng) for _ in range(60))
    ]
    calls = sum((g.n // 4 + 1) * (m + 1) for m, g in augmented)

    def run():
        yes = 0
        for m, g in augmented:
            g = _fresh(g)
            n = g.n // 4
            yes += sum(pvc_decide(PvcbInstance(g, k, t + 3 * k)) for k in range(n + 1) for t in range(m + 1))
        return yes

    secs, _ = _time(run)
    _row(f"pvc_decide lemma1-shaped ({len(augmented)} graphs)", secs, calls)


def bench_monopoly_decides():
    # smon_decide and sdyn_decide at every bound d and three factors k on
    # fresh graph objects of a seeded corpus; the greedy and the degree-sum
    # bound settle most of them, and solves counts the rest
    rng = random.Random(19)
    graphs = [random_graph(rng.randint(4, 12), rng.choice((0.2, 0.4, 0.6)), rng) for _ in range(60)]
    jobs = [(smon_decide, Fraction(1, 2)), (smon_decide, Fraction(1)), (smon_decide, Fraction(3, 2)),
            (sdyn_decide, Fraction(3, 2))]
    calls = sum(len(jobs) * (g.n + 1) for g in graphs)

    def run():
        yes = 0
        for g in graphs:
            g = _fresh(g)
            yes += sum(decide(g, d, k) for decide, k in jobs for d in range(g.n + 1))
        return yes

    secs, _ = _time(run)
    solves = _calls(pvc, "solve_pvc", run)
    _row(f"smon/sdyn_decide ({len(graphs)} graphs)", secs, calls, solves=solves, nodes=_nodes(run))


def bench_reduction_chain():
    # reduction_chain G -> G' -> H at rho = 1/2 over every (k, t) of a graph
    # with cycles and of a tree, whose gadgets route to the tree DP; each
    # run starts from a fresh G, and solves counts the decides the
    # shortcuts leave to solve_pvc
    rho = Fraction(1, 2)
    for label, g in (("G(20,0.2)", random_graph(20, 0.2, random.Random(23))),
                     ("tree n=30", random_tree(30, random.Random(23)))):
        instances = [(k, t) for k in range(g.n + 1) for t in range(g.m + 1)]

        def run():
            fresh = _fresh(g)
            return all(reduction_chain(fresh, k, t, rho)[1] for k, t in instances)

        secs, _ = _time(run, repeat=2)
        _row(f"reduction_chain {label} m={g.m} every (k,t)", secs, len(instances),
             solves=_calls(pvc, "solve_pvc", run))


def _fresh(g):
    return Graph(g.n, g.edges, g.adjacency)


def bench_minplus():
    rng = random.Random(3)

    def table(*shape):
        return np.array(rng.choices(range(1001), k=math.prod(shape)), dtype=np.int64).reshape(shape)

    # the tree DP's shapes: a vertex's (2, L) table, one cell before its first
    # child or a short prefix, folded with a child's (2, L) link table; then
    # the component knapsack's 1-D tables, short and one large merge
    for lead, rows, cols, calls in ((2, 1, 200, 10000), (2, 2, 200, 10000), (2, 40, 200, 1000),
                                    (1, 2, 200, 10000), (1, 40, 200, 1000)):
        shape = (lead,) if lead > 1 else ()
        pairs = [(table(*shape, rows), table(*shape, cols)) for _ in range(16)]
        batch = [pairs[i % 16] for i in range(calls)]
        secs, _ = _time(lambda: [kernels.minplus(a, b) for a, b in batch])
        _row(f"minplus {'x'.join(map(str, (*shape, rows, cols)))}", secs, calls)
    secs, _ = _time(kernels.minplus, table(1200), table(1200))
    _row("minplus 1200x1200", secs)
    # a short fold of two list tables, which the plain-Python loop answers
    pairs = [(tuple(table(2, 3).tolist()), tuple(table(2, 16).tolist())) for _ in range(16)]
    batch = [pairs[i % 16] for i in range(10000)]
    secs, _ = _time(lambda: [kernels.minplus(a, b) for a, b in batch])
    _row("minplus 2x3x16 lists", secs, len(batch))


def _nodes(fn):
    # search states bb_min_cover tested in one run of fn
    nodes = 0
    search = kernels.bb_min_cover

    def counted(*args):
        nonlocal nodes
        witness, tested = search(*args)
        nodes += tested
        return witness, tested

    kernels.bb_min_cover = counted
    try:
        fn()
    finally:
        kernels.bb_min_cover = search
    return nodes


def _calls(module, name, fn):
    # calls of module.name made by one run of fn
    calls = 0
    original = getattr(module, name)

    def counted(*args, **kwargs):
        nonlocal calls
        calls += 1
        return original(*args, **kwargs)

    setattr(module, name, counted)
    try:
        fn()
    finally:
        setattr(module, name, original)
    return calls


def _witness_corpus():
    # every (graph, subset) the witness battery checks at its default bounds,
    # drawn as witness_identity_battery draws them
    rng = random.Random(7)
    jobs = []
    for _ in range(60):
        n = rng.randint(1, 8)
        g = random_graph(n, rng.choice((0.25, 0.5, 0.75)), rng)
        jobs.extend((g, frozenset(v for v in range(n) if (mask >> v) & 1)) for mask in range(1 << n))
    return jobs


def bench_monopoly_checks():
    # the witness layer alone: the canonical witnesses built and re-checked
    # by the definitional checkers, over the witness battery's subsets and
    # the theorems battery's smon/sdyn answers (solved before timing), then
    # each construction and checker on a 2,000-vertex tree and its tree-DP
    # cover, a seed whose spread runs many rounds
    def build_and_check(g, subset):
        return (is_monopoly(g, monopoly_witness_tau(g, subset), subset)
                and is_dynamic_monopoly(g, dynamo_witness_tau(g, subset), subset))

    subsets = _witness_corpus()
    secs, _ = _time(lambda: [build_and_check(g, s) for g, s in subsets])
    _row(f"witness checks witness battery ({len(subsets)} subsets)", secs, len(subsets))
    answers = [(g, smon(g, t), sdyn(g, t)) for g in theorem_corpus() for t in _feasible_averages(g)]

    def theorem_checks():
        for g, mon, dyn in answers:
            monopoly_witness_tau(g, mon.monopoly)
            dynamo_witness_tau(g, dyn.seed)
            is_monopoly(g, mon.tau, mon.monopoly)
            is_dynamic_monopoly(g, dyn.witness_tau, dyn.seed)

    secs, _ = _time(theorem_checks)
    _row(f"witness checks theorems battery ({len(answers)} instances)", secs, len(answers))
    g = random_tree(2000, random.Random(11))
    cover = pvc_tree(g, g.m // 3).witness
    phi, psi = monopoly_witness_tau(g, cover), dynamo_witness_tau(g, cover)
    for label, fn, args in (("monopoly_witness_tau", monopoly_witness_tau, (g, cover)),
                            ("dynamo_witness_tau", dynamo_witness_tau, (g, cover)),
                            ("is_monopoly", is_monopoly, (g, phi, cover)),
                            ("is_dynamic_monopoly", is_dynamic_monopoly, (g, psi, cover))):
        secs, _ = _time(lambda: [fn(*args) for _ in range(20)])
        _row(f"{label} tree n={g.n} cover {len(cover)}", secs, 20)


def bench_tree_solver():
    # random_tree and path_graph guard the shapes with few repeated subtrees
    # and few leaf runs against a slowdown; the path is the deepest tree.
    # The recursive n=600 tree is the size of the cli workload's 30 trees
    # that set its 90th percentile. The path and recursive rows also give
    # the call's tracemalloc peak (peak_bytes).
    uniform = random_tree(2000, random.Random(11))
    recursive = random_recursive_tree(2000, random.Random(12))
    recursive_600 = random_recursive_tree(600, random.Random(12))
    path = path_graph(2000)
    for label, g, target, traced in (
        ("n=2000 t=m", uniform, uniform.m, False),
        ("n=2000 t=m/3", uniform, uniform.m // 3, False),
        ("recursive n=2000 t=m/3", recursive, recursive.m // 3, True),
        ("recursive n=600 t=m/3", recursive_600, recursive_600.m // 3, True),
        ("path n=2000 t=m/3", path, path.m // 3, True),
    ):
        secs, res = _time(lambda: pvc_tree(g, target), repeat=2)
        counts = _tree_counts(lambda: pvc_tree(g, target))
        if traced:
            counts["peak_bytes"] = _traced(pvc_tree, g, target)[2]
        _row(f"pvc_tree {label} (size {res.size})", secs, **counts)
    queries = _cli_queries()
    secs, _ = _time(lambda: [pvc_tree(g, t) for g, t in queries], repeat=2)
    _row(f"pvc_tree cli mix ({len(queries)} trees)", secs, len(queries),
         **_tree_counts(lambda: [pvc_tree(g, t) for g, t in queries]))


def _tree_counts(fn):
    # the kernels.minplus calls of one run of fn and the shapes' first
    # steps, which the tree DP builds without one
    return {"minplus_calls": _calls(kernels, "minplus", fn), "first_steps": _calls(pvc, "_first_step", fn)}


def _traced(fn, *args):
    # fn(*args) with the bytes it keeps and its peak, by tracemalloc
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        result = fn(*args)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, kept - before, peak - before


def bench_graph_build():
    # rebuilding graphs from their sorted edge lists, and walking them: the
    # cli tree mix and the lemma2 battery's gadgets; then one edgeless
    # header, with the bytes per vertex its graph keeps
    trees = [g for g, _ in _cli_queries()]
    gadgets = [inst.graph for inst, _ in _lemma2_gadgets()]
    for label, graphs in (("cli tree mix", trees), ("lemma2 gadgets", gadgets)):
        secs, _ = _time(lambda: [Graph.from_edges(g.n, g.edges) for g in graphs])
        _row(f"Graph.from_edges {label} ({len(graphs)} graphs)", secs, len(graphs))
    secs, _ = _time(lambda: [walk(g) for g in trees])
    _row(f"walk cli tree mix ({len(trees)} trees)", secs, len(trees))
    n = 100_000
    secs, _ = _time(Graph.from_edges, n, [])
    _, kept, _ = _traced(Graph.from_edges, n, [])
    _row(f"Graph.from_edges edgeless n={n}", secs, bytes_per_vertex=round(kept / n))


def bench_parse():
    # parse_graph over the cli tree mix's texts and one 100,000-edge tree
    # text; peak_bytes_per_edge is the parse's tracemalloc peak over its
    # edges (the largest of the mix's), against ~12 B of text per edge
    mix = [to_edge_list_text(g) for g, _ in _cli_queries()]
    big = to_edge_list_text(random_recursive_tree(100_001, random.Random(1)))
    for label, texts in ((f"cli tree mix ({len(mix)} texts)", mix), ("recursive tree m=100000", [big])):
        secs, _ = _time(lambda: [parse_graph(text) for text in texts])
        peaks = []
        for text in texts:
            graph, _, peak = _traced(parse_graph, text)
            peaks.append(peak / graph.m)
        _row(f"parse_graph {label}", secs, len(texts), peak_bytes_per_edge=round(max(peaks)))


def bench_dispatch():
    # solve_pvc on fresh graph objects: the routing step with the solve it
    # picks, the tree DP on the tree and the degree greedy on K_{20,400}
    tree = random_recursive_tree(2000, random.Random(12))
    bip = complete_bipartite(20, 400)
    for label, g, target, calls in (
        ("recursive n=2000 t=m/3", tree, tree.m // 3, 10),
        ("K20,400 t=m/2", bip, bip.m // 2, 40),
    ):
        secs, _ = _time(lambda: [solve_pvc(_fresh(g), target) for _ in range(calls)])
        walks = _calls(pvc, "walk", lambda: solve_pvc(_fresh(g), target))
        _row(f"solve_pvc {label}", secs, calls, walks=walks)
    # the degree greedy asked for by name, on two K_{2,40} whose X sides the
    # walk colours apart (n = 84): it orients each component as the router does
    first = [(x, 2 + y) for x in range(2) for y in range(40)]
    second = [(42 + y, 82 + x) for x in range(2) for y in range(40)]
    g = Graph.from_edges(84, first + second)
    secs, _ = _time(lambda: [pvc_degree_greedy(_fresh(g), g.m) for _ in range(40)])
    walks = _calls(pvc, "walk", lambda: pvc_degree_greedy(_fresh(g), g.m))
    _row("pvc_degree_greedy direct two K2,40 t=m", secs, 40, walks=walks)


def bench_gadgets():
    # build_gadget at every (graph, k, t, rho) the lemma2 battery builds at
    # its default bound n <= 4, then load_gadget on the golden C4 gadget
    jobs = [
        (g, k, t, rho)
        for n in range(1, 5)
        for g in all_labeled_graphs(n)
        for rho in DEFAULT_RHOS
        for k in range(n + 1)
        for t in range(g.m + 1)
    ]
    secs, _ = _time(lambda: [build_gadget(*job) for job in jobs])
    _row(f"build_gadget lemma2 battery n<=4 ({len(jobs)} builds)", secs, len(jobs))
    # the gadgets the battery itself builds: one family per (graph, rho),
    # called once per distinct path length
    families = {}
    for g, k, t, rho in jobs:
        first = families.setdefault((g, rho), {})
        first.setdefault(gadget_parameters(g, k, t, rho)[1], (k, t))
    calls = sum(map(len, families.values()))

    def build_families():
        for (g, rho), first in families.items():
            family = _GadgetFamily(g, rho)
            for k, t in first.values():
                family(k, t)

    secs, _ = _time(build_families)
    _row(f"gadget families lemma2 ({calls} in {len(families)})", secs, calls)
    inst = build_gadget(cycle_graph(4), 1, 2, Fraction(1, 2))
    texts = (gadget_edge_list(inst), gadget_sidecar_json(inst))
    secs, _ = _time(lambda: [load_gadget(*texts) for _ in range(100)])
    _row(f"load_gadget golden C4 (n={inst.graph.n})", secs, 100)


def bench_batteries():
    # each battery at its default bounds, as `pvcmon verify all` runs it,
    # best of three runs, with the instances it checks a second
    print(f"\n{'battery':<44} {'time':>12} {'instances/s':>12}")
    for battery in (lemma1_battery, lemma2_battery, theorem_battery, witness_identity_battery):
        secs, report = _time(battery)
        rate = round(report.instances / secs)
        ROWS.append({"name": f"battery {report.suite}", "seconds": round(secs, 6),
                     "calls": report.instances, "instances_per_second": rate})
        print(f"{report.suite:<44} {secs * 1e3:>10.2f}ms {rate:>12}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--json", metavar="PATH", help="also write the rows to this JSON file")
    args = parser.parse_args()
    print(f"backend: {kernels.backend()}")
    print(f"{'kernel':<44} {'time':>12}")
    bench_cover_profile()
    bench_oracle_profiles()
    bench_bb_search()
    bench_lemma1_decides()
    bench_monopoly_decides()
    bench_monopoly_checks()
    bench_reduction_chain()
    bench_minplus()
    bench_tree_solver()
    bench_graph_build()
    bench_parse()
    bench_dispatch()
    bench_gadgets()
    bench_batteries()
    if args.json:
        report = {
            "backend": kernels.backend(),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "cpu_count": os.cpu_count(),
            "timing": "best of 2-3 runs; seconds is the whole batch of calls",
            "rows": ROWS,
        }
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=2)
            fh.write("\n")


if __name__ == "__main__":
    main()
