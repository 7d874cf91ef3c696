import json
import math
import random
import subprocess
import sys
from fractions import Fraction

import pytest

from pvcmon.cli import main
from pvcmon.corpus import path_graph, random_graph, random_tree
from pvcmon.graph import to_edge_list_text
from pvcmon.pvc import pvc_tree

C4_TEXT = "4 4\n0 1\n1 2\n2 3\n3 0\n"
P5_TEXT = "5 4\n0 1\n1 2\n2 3\n3 4\n"


@pytest.fixture
def c4_file(tmp_path):
    path = tmp_path / "c4.txt"
    path.write_text(C4_TEXT)
    return str(path)


@pytest.fixture
def p5_file(tmp_path):
    path = tmp_path / "p5.txt"
    path.write_text(P5_TEXT)
    return str(path)


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out) if out.strip() else None


def test_pvc_auto(capsys, c4_file):
    code, report = run_cli(capsys, "pvc", c4_file, "-t", "2")
    assert code == 0
    assert report["result"]["size"] == 1
    assert report["input"] == {"n": 4, "m": 4}


def test_pvc_tree_solver(capsys, p5_file):
    code, report = run_cli(capsys, "pvc", p5_file, "-t", "4", "--solver", "tree")
    assert code == 0
    assert report["result"]["size"] == 2
    assert report["result"]["method"] == "tree_dp"


def test_pvc_auto_large_path_uses_tree_solver(capsys, tmp_path):
    path = tmp_path / "p35.txt"
    path.write_text(to_edge_list_text(path_graph(35)))
    code, report = run_cli(capsys, "pvc", str(path), "-t", "34")
    assert code == 0
    assert report["result"]["method"] == "tree_dp"
    assert report["result"]["size"] == 17


def test_pvc_low_guard_keeps_forests_exact(capsys, p5_file):
    # the guard caps branch-and-bound only; a forest still gets the tree DP
    code, report = run_cli(capsys, "--guard", "3", "pvc", p5_file, "-t", "4")
    assert code == 0
    assert report["result"]["upper_bound"] is False
    assert report["result"]["size"] == 2


def test_pvc_degree_greedy_solver_orients_the_view(capsys, tmp_path):
    # star with its center last: the default bipartition puts the leaves on X
    star = tmp_path / "star.txt"
    star.write_text("4 3\n0 3\n1 3\n2 3\n")
    code, report = run_cli(capsys, "pvc", str(star), "-t", "3", "--solver", "degreeGreedy")
    assert code == 0
    assert report["result"]["witness"] == [3]
    assert report["result"]["method"] == "degree_greedy"
    c5 = tmp_path / "c5.txt"
    c5.write_text("5 5\n0 1\n1 2\n2 3\n3 4\n4 0\n")
    code, _ = run_cli(capsys, "pvc", str(c5), "-t", "3", "--solver", "degreeGreedy")
    assert code == 2


def test_smon_sdyn_large_tree(capsys, tmp_path):
    g = random_tree(300, random.Random(1))
    path = tmp_path / "tree.txt"
    path.write_text(to_edge_list_text(g))
    nt = g.n * Fraction(19, 10)
    for command, target in (("smon", math.ceil(nt / 2)), ("sdyn", math.ceil(nt) - g.m)):
        code, report = run_cli(capsys, command, str(path), "-t", "19/10")
        assert code == 0
        assert report["result"]["verified"] is True
        assert report["result"]["size"] == pvc_tree(g, target).size


def test_smon_at_the_vertex_cover_end(capsys, tmp_path):
    # at the largest average 2m/n the static target is m: a full vertex cover
    g = random_graph(60, 0.1, random.Random(1))
    path = tmp_path / "g60.txt"
    path.write_text(to_edge_list_text(g))
    average = Fraction(2 * g.m, g.n)
    assert average == Fraction(173, 30)
    code, report = run_cli(capsys, "smon", str(path), "-t", "173/30")
    assert code == 0
    assert report["result"]["verified"] is True
    assert report["result"]["size"] == 36


def test_pvc_zero_target(capsys, c4_file):
    code, report = run_cli(capsys, "pvc", c4_file, "-t", "0", "--solver", "exact")
    assert code == 0
    assert report["result"]["size"] == 0


def test_pvc_heuristic_is_flagged(capsys, c4_file):
    code, report = run_cli(capsys, "pvc", c4_file, "-t", "4", "--solver", "greedy")
    assert code == 0
    assert report["result"]["upper_bound"] is True


def test_smon(capsys, c4_file):
    code, report = run_cli(capsys, "smon", c4_file, "-t", "1")
    assert code == 0
    assert report["result"]["size"] == 1
    assert report["result"]["verified"] is True
    code, report = run_cli(capsys, "smon", c4_file, "-t", "2")
    assert code == 0
    assert report["result"]["size"] == 2


def test_smon_infeasible_exit_code(capsys, c4_file):
    code, _ = run_cli(capsys, "smon", c4_file, "-t", "5/2")
    assert code == 3


def test_sdyn_with_oracle(capsys, c4_file):
    code, report = run_cli(capsys, "sdyn", c4_file, "-t", "3/2", "--oracle")
    assert code == 0
    assert report["result"]["size"] == 1
    assert report["result"]["oracle"]["agrees"] is True
    code, report = run_cli(capsys, "sdyn", c4_file, "-t", "1")
    assert report["result"]["size"] == 0


def test_decimal_rational_rejected(capsys, c4_file):
    code, _ = run_cli(capsys, "smon", c4_file, "-t", "1.5")
    assert code == 2


def test_parse_error_exit_code(capsys, tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("2 1\n0 0\n")
    code, _ = run_cli(capsys, "pvc", str(bad), "-t", "0")
    assert code == 2


def test_missing_file_exit_code(capsys):
    code, _ = run_cli(capsys, "pvc", "/nonexistent/graph.txt", "-t", "0")
    assert code == 2


def test_simulate(capsys, tmp_path, c4_file):
    tau = tmp_path / "tau.txt"
    tau.write_text("2\n1\n1\n2\n")
    code, report = run_cli(capsys, "simulate", c4_file, str(tau), "--seed", "0")
    assert code == 0
    assert report["result"]["activated_all"] is True
    assert report["result"]["layers"][0] == [0]


def test_simulate_bad_thresholds(capsys, tmp_path, c4_file):
    tau = tmp_path / "tau.txt"
    tau.write_text("3\n0\n0\n0\n")  # above degree
    code, _ = run_cli(capsys, "simulate", c4_file, str(tau))
    assert code == 2


def test_reduce_writes_files(capsys, tmp_path, c4_file):
    out = tmp_path / "gadget"
    code, report = run_cli(
        capsys, "reduce", c4_file, "-k", "1", "-t", "2", "--rho", "1/2", "-o", str(out)
    )
    assert code == 0
    assert report["result"]["r"] == 25 and report["result"]["s"] == 21
    edge_text = (tmp_path / "gadget.edgelist").read_text()
    assert edge_text.startswith("63 63\n")
    meta = json.loads((tmp_path / "gadget.json").read_text())
    assert meta["rho"] == "1/2"


def test_verify_small_battery(capsys):
    runs = []
    for _ in range(2):
        code, report = run_cli(capsys, "verify", "lemma1", "--size-bound", "3")
        assert code == 0
        battery = report["result"]["reports"][0]
        assert battery["passed"] is True
        assert battery["elapsed_seconds"] > 0
        assert battery["instances_per_second"] > 0
        for key in ("elapsed_seconds", "instances_per_second"):
            battery.pop(key)
        report.pop("elapsed_seconds")
        runs.append(json.dumps(report, sort_keys=True))
    assert runs[0] == runs[1]


@pytest.mark.parametrize(
    "argv, message",
    [
        (("theorems", "--count", "0"), "graph count must be at least 1, got 0"),
        (("theorems", "--count", "-3"), "graph count must be at least 1, got -3"),
        (("lemma1", "--size-bound", "0"), "size bound must be at least 1, got 0"),
        (("all", "--size-bound", "-2"), "size bound must be at least 1, got -2"),
    ],
)
def test_verify_rejects_nonpositive_bounds(capsys, argv, message):
    code = main(["verify", *argv])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert message in captured.err


@pytest.mark.parametrize(
    "suite, bound, cap",
    [("lemma1", 7, 6), ("lemma2", 6, 5), ("theorems", 15, 14)],
)
def test_verify_caps_exhaustive_suites(capsys, suite, bound, cap):
    # one size past the cap enumerates for hours; the refusal comes at once
    code = main(["verify", suite, "--size-bound", str(bound)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert f"the {suite} suite is exhaustive; size bound must be <= {cap}" in captured.err


def test_payload_stability_excluding_timing(capsys, c4_file):
    code1, r1 = run_cli(capsys, "sdyn", c4_file, "-t", "3/2", "--oracle")
    code2, r2 = run_cli(capsys, "sdyn", c4_file, "-t", "3/2", "--oracle")
    assert code1 == code2 == 0
    r1.pop("elapsed_seconds")
    r2.pop("elapsed_seconds")
    assert json.dumps(r1, sort_keys=True) == json.dumps(r2, sort_keys=True)


def test_parser_is_built_once_and_leaks_nothing(capsys, tmp_path, c4_file, monkeypatch):
    # each pair runs an option then its absence: an option or default that
    # outlived its call would change the second payload
    import pvcmon.cli as cli_module

    big = tmp_path / "g32.txt"
    big.write_text(to_edge_list_text(random_graph(32, 0.15, random.Random(1))))
    tau = tmp_path / "tau.txt"
    tau.write_text("2\n1\n1\n2\n")
    runs = [
        ("sdyn", c4_file, "-t", "3/2", "--oracle"),
        ("sdyn", c4_file, "-t", "3/2"),
        ("--guard", "40", "pvc", str(big), "-t", "55"),
        ("pvc", str(big), "-t", "55"),
        ("simulate", c4_file, str(tau), "--seed", "1", "2"),
        ("simulate", c4_file, str(tau)),
    ]

    def run(argv):
        code = main(list(argv))
        captured = capsys.readouterr()
        report = json.loads(captured.out)
        report.pop("elapsed_seconds")
        return code, report, captured.err

    builds = []
    real_build = cli_module.build_parser
    monkeypatch.setattr(cli_module, "build_parser", lambda: builds.append(1) or real_build())
    monkeypatch.setattr(cli_module, "_parser", None)
    shared = [run(argv) for argv in runs]
    assert len(builds) == 1
    fresh = []
    for argv in runs:
        monkeypatch.setattr(cli_module, "_parser", None)
        fresh.append(run(argv))
    assert shared == fresh
    assert "oracle" in shared[0][1]["result"] and "oracle" not in shared[1][1]["result"]
    assert shared[2][1]["result"]["method"] == "exact"
    assert shared[3][1]["result"]["method"] == "heuristic"
    assert shared[4][1]["result"]["layers"][0] == [1, 2]
    assert shared[5][1]["result"]["layers"] == [[]]


def test_seed_order_flag(capsys, tmp_path):
    # unique minimum cover is {0, 3}; vertex 3 has the larger degree
    path = tmp_path / "g.txt"
    path.write_text("5 6\n0 1\n0 2\n0 3\n1 3\n2 3\n3 4\n")
    code, by_id = run_cli(capsys, "pvc", str(path), "-t", "6", "--solver", "exact")
    assert code == 0 and by_id["result"]["witness"] == [0, 3]
    code, by_deg = run_cli(
        capsys, "--seed-order", "degree", "pvc", str(path), "-t", "6", "--solver", "exact"
    )
    assert code == 0 and by_deg["result"]["witness"] == [3, 0]


def test_numpy_fallback_subprocess(tmp_path):
    graph = tmp_path / "c4.txt"
    graph.write_text(C4_TEXT)
    proc = subprocess.run(
        [sys.executable, "-m", "pvcmon.cli", "pvc", str(graph), "-t", "4", "--solver", "exact"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert report["result"]["size"] == 2
    check = subprocess.run(
        [sys.executable, "-c", "from pvcmon import kernels; print(kernels.backend())"],
        capture_output=True,
        text=True,
    )
    assert check.stdout.strip() == "numpy"
