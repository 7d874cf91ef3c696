import math
import random

import numpy as np
import pytest
from util import (
    reference_bb_min_cover,
    reference_cover_profile,
    reference_max_independent_set_size,
    reference_phi_total_profile,
    reference_sparse_profile,
)

from pvcmon import kernels
from pvcmon.corpus import all_labeled_graphs, random_graph
from pvcmon.graph import Graph
from pvcmon.monopoly import sparse_profile
from pvcmon.oracles import cover_profile, max_independent_set_size
from pvcmon.pvc import _csr_arrays, pvc_exact, pvc_greedy_upper
from pvcmon.verify import _phi_total_profile, _theorem_profiles


def _edge_arrays(g: Graph):
    eu = np.array([u for u, _ in g.edges], dtype=np.int64)
    ev = np.array([v for _, v in g.edges], dtype=np.int64)
    return eu, ev


def test_cover_profile_backends_agree():
    rng = random.Random(11)
    for _ in range(20):
        g = random_graph(rng.randint(1, 9), rng.choice((0.3, 0.6)), rng)
        eu, ev = _edge_arrays(g)
        via_python = reference_cover_profile(g.n, eu, ev)
        via_numpy = kernels.cover_profile(g.n, eu, ev)
        assert list(via_python) == list(via_numpy)


def test_cover_profile_guard():
    eu = np.zeros(0, dtype=np.int64)
    ev = np.zeros(0, dtype=np.int64)
    with pytest.raises(ValueError):
        kernels.cover_profile(30, eu, ev)


def _enumeration_graphs():
    # every labelled graph with n <= 5, then seeded G(n, p) up to the
    # theorems battery's cap; from n = 14 the enumeration takes two chunks
    for n in range(6):
        yield from all_labeled_graphs(n)
    rng = random.Random(24)
    for n in range(6, 15):
        for p in (0.3, 0.7):
            yield random_graph(n, p, rng)


def test_enumeration_oracles_match_their_loops():
    # key order included: sdyn_via_subgraph's witness is a first mask
    def rows(profile):
        return [list(row.items()) for row in profile]

    for g in _enumeration_graphs():
        phi = reference_phi_total_profile(g)
        sparse = rows(reference_sparse_profile(g))
        assert _phi_total_profile(g) == phi
        assert rows(sparse_profile(g)) == sparse
        assert max_independent_set_size(g) == reference_max_independent_set_size(g)
        cover, battery_phi, battery_sparse = _theorem_profiles(g)
        assert (cover, battery_phi, rows(battery_sparse)) == (cover_profile(g), phi, sparse)
        # a subset's witness total is twice its coverage, so the loop's
        # profile checks the coverage fold across chunks too
        assert phi == [2 * c for c in cover]


def _naive_minplus(a, b):
    out = [kernels.INF] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            out[i + j] = min(out[i + j], min(ai + bj, kernels.INF))
    return out


def _whole(a, b):
    # the whole convolution: a cut at its full width keeps every cell
    return kernels.minplus(a, b, a.shape[-1] + b.shape[-1] - 1)


def test_minplus_backends_agree():
    rng = random.Random(5)
    for _ in range(30):
        la = rng.randint(1, 12)
        lb = rng.randint(1, 12)
        a = np.array(
            [rng.randint(0, 50) if rng.random() < 0.8 else kernels.INF for _ in range(la)],
            dtype=np.int64,
        )
        b = np.array(
            [rng.randint(0, 50) if rng.random() < 0.8 else kernels.INF for _ in range(lb)],
            dtype=np.int64,
        )
        expected = _naive_minplus(list(a), list(b))
        assert list(_whole(a, b)) == expected


def _table(values):
    return np.array(values, dtype=np.int64)


@pytest.mark.parametrize(
    "a, b",
    [
        ([3], [4]),                                  # 1x1
        ([kernels.INF], [2]),                        # 1x1, unreachable
        ([2], [0, 5, kernels.INF, 1]),               # one cell on the left
        ([0, 5, kernels.INF, 1], [2]),               # one cell on the right
        ([kernels.INF], [0, 5, kernels.INF, 1]),     # a[0] == INF
        ([0, 5, 1], [kernels.INF]),                  # b[0] == INF
        ([kernels.INF] * 3, [kernels.INF] * 2),      # all unreachable
        ([kernels.INF], [kernels.INF] * 4),
        ([0, kernels.INF], [kernels.INF, 0, 7]),
    ],
)
def test_minplus_edge_cases(a, b):
    a, b = _table(a), _table(b)
    a_before, b_before = a.copy(), b.copy()
    out = _whole(a, b)
    assert out.dtype == np.int64
    assert list(out) == _naive_minplus(list(a), list(b))
    # the inputs are left as they were, and the result is a new array
    assert list(a) == list(a_before) and list(b) == list(b_before)
    assert not np.shares_memory(out, a) and not np.shares_memory(out, b)


def test_minplus_random_lengths():
    # lengths 1..40 on both sides run the one-add path and the blocked path
    rng = random.Random(29)
    for _ in range(300):
        a, b = (
            _table([rng.randint(0, 90) if rng.random() < 0.7 else kernels.INF
                    for _ in range(rng.choice((1, rng.randint(1, 40))))])
            for _ in range(2)
        )
        assert list(_whole(a, b)) == _naive_minplus(list(a), list(b))


def _stacked(rng, length):
    return _table([[rng.randint(0, 900) if rng.random() < 0.7 else kernels.INF
                    for _ in range(length)] for _ in range(2)])


def _check_stacked(a, b):
    # the whole convolution, and its first cells alone when cut
    full = a.shape[1] + b.shape[1] - 1
    for size in (1, (full + 1) // 2, full, full + 1):
        out = kernels.minplus(a, b, size)
        width = min(full, size)
        assert out.dtype == np.int64
        assert out.shape == (2, width)
        for row in range(2):
            assert list(out[row]) == _naive_minplus(list(a[row]), list(b[row]))[:width]


def test_minplus_stacked_rows_match_naive():
    # the tree DP's (2, L) operands, each row its own convolution; lengths up
    # to 300 give several blocks of _BLOCK_CELLS // 300 rows and a partial last one
    rng = random.Random(41)
    lengths = [1, 2, 3, 54, 55, 109, 300]
    for la in lengths:
        for lb in lengths:
            _check_stacked(_stacked(rng, la), _stacked(rng, lb))
    for _ in range(25):
        _check_stacked(_stacked(rng, rng.randint(1, 300)), _stacked(rng, rng.randint(1, 300)))
    assert kernels._BLOCK_CELLS // 300 < 300  # the long cases above span several blocks


def test_minplus_stacked_unreachable_rows():
    rng = random.Random(43)
    for la, lb in ((1, 7), (7, 1), (5, 9), (120, 250), (300, 300)):
        a, b = _stacked(rng, la), _stacked(rng, lb)
        a[1] = kernels.INF                      # a whole row unreachable
        b[0, 0] = kernels.INF                   # INF in the first cell
        a[0, 0] = kernels.INF
        out = _whole(a, b)
        assert (out[1] == kernels.INF).all()
        _check_stacked(a, b)


def test_minplus_stacked_leaves_read_only_inputs():
    rng = random.Random(47)
    for la, lb in ((1, 40), (40, 1), (2, 300), (300, 300)):
        a, b = _stacked(rng, la), _stacked(rng, lb)
        a_before, b_before = a.copy(), b.copy()
        a.setflags(write=False)
        b.setflags(write=False)
        for size in (la + lb - 1, 2):
            out = kernels.minplus(a, b, size)
            assert (a == a_before).all() and (b == b_before).all()
            assert not np.shares_memory(out, a) and not np.shares_memory(out, b)
            assert out.flags.writeable


def test_bb_matches_enumeration_minimum():
    from pvcmon.oracles import min_cover_size
    from pvcmon.pvc import pvc_exact

    rng = random.Random(17)
    for _ in range(40):
        g = random_graph(rng.randint(1, 9), rng.choice((0.25, 0.5, 0.75)), rng)
        for t in range(g.m + 1):
            assert pvc_exact(g, t).size == min_cover_size(g, t)


def _search_args(g, t, incumbent=None):
    indptr, nbrs = _csr_arrays(g)
    if incumbent is None:
        incumbent = sorted(pvc_greedy_upper(g, t).witness)
    return g.n, indptr, nbrs, t, incumbent


def _frozen_reference_cases():
    # seeded G(n, p), every target up to n = 14 and five near the
    # vertex-cover end above it
    rng = random.Random(71)
    for _ in range(100):
        g = random_graph(rng.randint(2, 30), rng.choice((0.1, 0.2, 0.3, 0.4, 0.5, 0.6)), rng)
        if g.n <= 14:
            targets = range(1, g.m + 1)
        else:
            targets = sorted({math.ceil(f * g.m) for f in (0.5, 0.8, 0.9, 0.97, 1)})
        for t in targets:
            yield _search_args(g, t)
    # isolated vertices, a star, K_n
    spread = Graph.from_edges(12, [(1, 4), (4, 7), (7, 10), (1, 10), (4, 10), (2, 9)])
    star = Graph.from_edges(9, [(0, v) for v in range(1, 9)])
    clique = Graph.from_edges(8, [(u, v) for u in range(8) for v in range(u + 1, 8)])
    for g in (spread, star, clique):
        for t in range(1, g.m + 1):
            yield _search_args(g, t)
    # an incumbent that is already optimal, and one of size 1
    g = random_graph(16, 0.3, random.Random(5))
    for t in (math.ceil(0.8 * g.m), g.m):
        yield _search_args(g, t, sorted(pvc_exact(g, t).witness))
    yield _search_args(star, star.m, [0])
    yield _search_args(clique, 7, [3])
    # target 0, which the empty set meets below any incumbent
    yield _search_args(clique, 0, [3])


def test_bb_matches_frozen_reference():
    # the search may only cut subtrees without a better cover, so it returns
    # the witness of the reference search, vertex for vertex
    cases = 0
    for args in _frozen_reference_cases():
        witness, nodes = kernels.bb_min_cover(*args)
        assert witness == reference_bb_min_cover(*args), args[3]
        assert nodes >= 1
        cases += 1
    assert cases > 900


# Search states tested over the bench script's golden corpus (64 G(n, p),
# n = 15..22, four targets each): 27,184 in the reference search (every
# state it explores), 18,500 since the forced-neighbour bound. The count
# does not depend on the machine; a change of bounds or branching may lower
# it, never raise it.
GOLDEN_NODES = 18_500


def test_bb_golden_node_count():
    results = [kernels.bb_min_cover(*args) for args in _load_bench_script().search_corpus()]
    assert len(results) == 256
    assert sum(nodes for _, nodes in results) == GOLDEN_NODES


def _load_bench_script():
    # loaded by path: benchmarks/ is not a package
    import importlib.util
    from pathlib import Path

    path = Path(__file__).resolve().parent.parent / "benchmarks" / "bench_kernels.py"
    spec = importlib.util.spec_from_file_location("bench_kernels", path)
    bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)
    return bench


def test_bench_script_runs_the_search_rows():
    # the kernel bench calls the search directly, so it must keep up with
    # bb_min_cover's signature
    bench = _load_bench_script()
    bench.bench_bb_search()
    names = [row["name"] for row in bench.ROWS]
    assert names[:4] == ["pvc_rho_decide 40 gadgets", "bb_min_cover n=50 m=177 t=m",
                         "bb_min_cover corpus (256 searches)", "bb_min_cover n=80 m=269 t=m"]
    assert all(row["nodes"] > 0 for row in bench.ROWS[1:4])
    # the rho-decide row's shortcuts settle every decide before a search
    assert bench.ROWS[0]["solves"] == bench.ROWS[0]["nodes"] == 0


def test_bench_script_runs_the_oracle_profile_rows():
    # the kernel bench calls the enumeration oracles and the theorems
    # battery's profiles directly, so it must keep up with their names
    bench = _load_bench_script()
    bench.bench_oracle_profiles()
    names = [row["name"] for row in bench.ROWS]
    assert [name.split(" n=")[0] for name in names[:6]] == ["cover_profile", "phi_total_profile", "sparse_profile"] * 2
    assert names[6] == "theorem profiles default corpus (500 graphs)"


def test_bench_script_runs_the_minplus_rows():
    # the kernel bench calls minplus directly at the tree DP's stacked
    # shapes, so it must keep up with the kernel's interface
    bench = _load_bench_script()
    bench.bench_minplus()
    names = [row["name"] for row in bench.ROWS]
    assert {"minplus 2x2x200", "minplus 2x40x200", "minplus 2x3x16 lists"} <= set(names)
    # the tree DP folds no one-cell operand, so no row times one
    assert "minplus 2x1x200" not in names


def test_bench_script_runs_the_tree_rows():
    # the kernel bench counts the tree DP's min-plus calls and first steps
    # by wrapping them, so it must keep up with their names
    bench = _load_bench_script()
    bench.bench_tree_solver()
    names = [row["name"].split(" (size")[0] for row in bench.ROWS]
    assert names == ["pvc_tree n=2000 t=m", "pvc_tree n=2000 t=m/3", "pvc_tree recursive n=2000 t=m/3",
                     "pvc_tree recursive n=600 t=m/3", "pvc_tree path n=2000 t=m/3",
                     "pvc_tree n=50 + 100000 isolated t=30", "pvc_tree cli mix (40 trees)"]
    assert all(row["first_steps"] > 0 for row in bench.ROWS)
    # every step of a path is a first step, and a path is one component
    calls = {name: row["minplus_calls"] for name, row in zip(names, bench.ROWS)}
    assert calls.pop("pvc_tree path n=2000 t=m/3") == 0
    assert all(count > 0 for count in calls.values())


def test_bench_script_runs_the_monopoly_check_rows():
    # the kernel bench redraws the witness battery's corpus and calls the
    # witness constructions and checkers directly, so it must keep up with
    # the battery's corpus and their names
    from pvcmon.verify import theorem_battery, witness_identity_battery

    bench = _load_bench_script()
    bench.bench_monopoly_checks()
    names = [row["name"] for row in bench.ROWS]
    assert names == [
        f"witness checks witness battery ({witness_identity_battery().instances} subsets)",
        f"witness checks theorems battery ({theorem_battery().instances} instances)",
        *(f"{fn} tree n=2000 cover 168" for fn in
          ("monopoly_witness_tau", "dynamo_witness_tau", "is_monopoly", "is_dynamic_monopoly")),
    ]
