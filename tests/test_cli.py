import argparse
import json
import math
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import pvcmon
from pvcmon.cli import _COMMANDS, build_parser, main
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


def test_exact_solver_above_the_guard_exits_2(capsys, p5_file):
    assert main(["--guard", "4", "pvc", p5_file, "-t", "4", "--solver", "exact"]) == 2
    assert capsys.readouterr() == ("", "error: exact solver guard: n=5 > 4; raise it with --guard\n")


def test_negative_guard_rejected(capsys, p5_file):
    for command in (("pvc", p5_file, "-t", "4"), ("sdyn", p5_file, "-t", "1", "--oracle")):
        code = main(["--guard", "-3", *command])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == "error: guard must be at least 0, got -3\n"
    code, report = run_cli(capsys, "--guard", "0", "pvc", p5_file, "-t", "4")
    assert code == 0 and report["result"]["method"] == "tree_dp"


def test_guard_refused_where_no_guard_applies(capsys, p5_file, tmp_path):
    # only pvc and sdyn --oracle have a guard; the other commands refuse one
    # rather than ignore it (as pvc's unguarded solvers do), and a negative
    # guard is named first
    thresholds = tmp_path / "tau.txt"
    thresholds.write_text("0\n" * 5)
    for command in (("smon", p5_file, "-t", "1"), ("sdyn", p5_file, "-t", "1"),
                    ("simulate", p5_file, str(thresholds)),
                    ("reduce", p5_file, "-k", "1", "-t", "2", "--rho", "1/2"), ("verify", "lemma1")):
        assert main(["--guard", "5", *command]) == 2
        assert capsys.readouterr() == (
            "", f"error: --guard applies only to pvc --solver auto|exact and sdyn --oracle, not {command[0]}\n")
        assert main(["--guard", "-1", *command]) == 2
        assert capsys.readouterr() == ("", "error: guard must be at least 0, got -1\n")
    code, report = run_cli(capsys, "--guard", "5", "sdyn", p5_file, "-t", "1", "--oracle")
    assert code == 0 and report["result"]["oracle"]["agrees"]


def test_guard_refused_where_pvc_ignores_it(capsys, p5_file):
    # the tree DP and the two greedies have no size guard, so pvc refuses
    # one with them and names the solver; auto and exact take it
    for solver in ("tree", "greedy", "degreeGreedy"):
        assert main(["--guard", "40", "pvc", p5_file, "-t", "1", "--solver", solver]) == 2
        assert capsys.readouterr() == (
            "", f"error: --guard applies only to pvc --solver auto|exact and sdyn --oracle, not pvc --solver {solver}\n")
    for solver in ("auto", "exact"):
        code, report = run_cli(capsys, "--guard", "5", "pvc", p5_file, "-t", "1", "--solver", solver)
        assert code == 0 and report["result"]["size"] == 1


def test_commands_table_covers_every_graph_command():
    # main dispatches every subcommand but verify through the table
    subparsers = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    assert set(_COMMANDS) == set(subparsers.choices) - {"verify"}


def test_out_of_memory_exits_5(capsys, p5_file, monkeypatch):
    # exit 1 would say a verify battery found a counterexample
    import pvcmon.cli

    def no_memory(*args, **kwargs):
        raise MemoryError("Unable to allocate 2.24 GiB")

    def no_memory_bare(*args):
        raise MemoryError()  # what a failed allocation of Python objects raises

    monkeypatch.setitem(_COMMANDS, "pvc", no_memory)
    assert main(["pvc", p5_file, "-t", "4"]) == 5
    assert capsys.readouterr() == ("", "error: out of memory: Unable to allocate 2.24 GiB\n")
    monkeypatch.setattr(pvcmon.cli, "_read_graph", no_memory_bare)
    assert main(["smon", p5_file, "-t", "1"]) == 5
    assert capsys.readouterr() == ("", "error: out of memory: an allocation failed\n")
    monkeypatch.setattr(pvcmon.cli, "run_suite", no_memory)
    assert main(["verify", "lemma1"]) == 5
    assert capsys.readouterr().err.startswith("error: out of memory: ")


def test_pvc_degree_greedy_solver_orients_the_view(capsys, tmp_path):
    # star with its center last: side 0 of the walk's colouring holds the leaves
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


def test_sdyn_oracle_refuses_a_large_graph_before_solving(capsys, tmp_path, monkeypatch):
    import pvcmon.monopoly

    def no_solve(graph, t):
        raise AssertionError("sdyn solved a graph the oracle refuses")

    path = tmp_path / "p15.txt"
    path.write_text(to_edge_list_text(path_graph(15)))  # n = 15 > the default guard 14, 2m = 28
    monkeypatch.setattr(pvcmon.monopoly, "solve_pvc", no_solve)
    for average, code, err in (
        ("3/2", 2, "error: enumeration guard: n=15 > 14\n"),
        ("2", 3, "error: infeasible parameters: no valid assignment:"
                 " required total 30 exceeds degree sum 28\n"),
        ("-1", 2, "error: average threshold must be nonnegative, got -1\n"),
    ):
        assert main(["sdyn", str(path), "-t", average, "--oracle"]) == code
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", err)
    # a raised guard warns only once the average is known to be valid
    assert main(["--guard", "20", "sdyn", str(path), "-t", "2", "--oracle"]) == 3
    assert "warning" not in capsys.readouterr().err


def test_decimal_rational_rejected(capsys, c4_file):
    code, _ = run_cli(capsys, "smon", c4_file, "-t", "1.5")
    assert code == 2


@pytest.mark.parametrize("command, options", [
    ("smon", ("-t", "1/0")),
    ("sdyn", ("-t", "3/0", "--oracle")),
    ("reduce", ("-k", "1", "-t", "2", "--rho", "1/0")),
])
def test_zero_denominator_exits_2(capsys, c4_file, command, options):
    assert main([command, c4_file, *options]) == 2
    assert capsys.readouterr() == ("", f"error: zero denominator in {'3/0' if command == 'sdyn' else '1/0'!r}\n")


@pytest.mark.parametrize("command, options", [
    ("smon", ("-t", "9" * 5000)),
    ("sdyn", ("-t", f"1/{'3' * 5000}")),
    ("reduce", ("-k", "1", "-t", "2", "--rho", f"1/{'2' * 5000}")),
])
def test_rational_above_the_digit_limit_exits_2(capsys, c4_file, command, options):
    limit = sys.get_int_max_str_digits()
    assert 0 < limit < 5000
    assert main([command, c4_file, *options]) == 2
    assert capsys.readouterr() == (
        "", f"error: rational has a part of 5000 digits, above the limit of {limit} digits\n")


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


def test_byte_order_mark_and_crlf_read_as_plain(capsys, tmp_path, c4_file):
    # Notepad and PowerShell 5's Out-File -Encoding utf8 start a file with a
    # UTF-8 byte-order mark
    tau = tmp_path / "tau.txt"
    tau.write_text("# thresholds\n2\n1\n1\n2\n")
    bom_c4, bom_tau = tmp_path / "bom-c4.txt", tmp_path / "bom-tau.txt"
    for plain, copy in ((Path(c4_file), bom_c4), (tau, bom_tau)):
        copy.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes().replace(b"\n", b"\r\n"))
    for plain, windows in (
        (("pvc", c4_file, "-t", "2"), ("pvc", str(bom_c4), "-t", "2")),
        (("simulate", c4_file, str(tau), "--seed", "0"), ("simulate", str(bom_c4), str(bom_tau), "--seed", "0")),
    ):
        runs = []
        for argv in (plain, windows):
            code, report = run_cli(capsys, *argv)
            assert code == 0, argv
            report.pop("elapsed_seconds")
            runs.append(report)
        assert runs[0] == runs[1]


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


P3_TEXT = "3 2\n0 1\n1 2\n"


@pytest.mark.parametrize("options, code, err", [
    (("-t", "99"), 3, "error: infeasible parameters: target 99 exceeds edge count 2\n"),
    (("-t", "-1"), 2, "error: negative coverage target -1\n"),
], ids=["above-m", "negative"])
def test_reduce_rejects_targets_outside_0_to_m(capsys, tmp_path, options, code, err):
    path = tmp_path / "p3.txt"
    path.write_text(P3_TEXT)
    assert main(["reduce", str(path), "-k", "1", *options, "--rho", "1/2"]) == code
    assert capsys.readouterr() == ("", err)


PVC_SOLVERS = ("auto", "exact", "tree", "greedy", "degreeGreedy")


@pytest.mark.parametrize("command, options", [
    *(("pvc", ("--solver", solver)) for solver in PVC_SOLVERS),
    ("reduce", ("-k", "1", "--rho", "1/2")),
], ids=[*(f"pvc-{solver}" for solver in PVC_SOLVERS), "reduce"])
@pytest.mark.parametrize("target, code, err", [
    ("-1", 2, "error: negative coverage target -1\n"),
    ("3", 3, "error: infeasible parameters: target 3 exceeds edge count 2\n"),
], ids=["negative", "above-m"])
def test_every_command_refuses_a_target_alike(capsys, tmp_path, command, options, target, code, err):
    # one rule on every command that takes a target: a negative one is an
    # input error (exit 2), one above m an infeasible parameter (exit 3)
    path = tmp_path / "p3.txt"
    path.write_text(P3_TEXT)
    assert main([command, str(path), *options, "-t", target]) == code
    assert capsys.readouterr() == ("", err)


@pytest.mark.parametrize("budget", ["-1", "4"])
def test_reduce_refuses_a_budget_outside_0_to_n(capsys, tmp_path, budget):
    path = tmp_path / "p3.txt"
    path.write_text(P3_TEXT)
    assert main(["reduce", str(path), "-k", budget, "-t", "1", "--rho", "1/2"]) == 2
    assert capsys.readouterr() == ("", f"error: budget k={budget} outside [0, 3]\n")


@pytest.mark.parametrize("target, rho, code, err", [
    ("1000000000000", "1/2", 3, "infeasible parameters: target 1000000000000 exceeds edge count 2"),
    ("2", "1/1000000000", 2,
     "gadget order 13000000002 (r=7, s=12999999982) exceeds the limit of 1000000 vertices"),
    ("2", "999999999/1000000000", 2,
     "gadget order 12000000014 (r=11999999994, s=7) exceeds the limit of 1000000 vertices"),
], ids=["t-10^12", "long-path", "large-star"])
def test_reduce_refuses_unbounded_gadgets(tmp_path, target, rho, code, err):
    # each gadget would have ~10^10 or more vertices; the child's address
    # space is capped at 1 GiB, so without the checks the build fails there
    # with exit 5 instead of exhausting the machine's memory
    path = tmp_path / "p3.txt"
    path.write_text(P3_TEXT)
    src = str(Path(pvcmon.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    child = (
        "import resource, sys\n"
        "resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))\n"
        "from pvcmon.cli import main\n"
        "sys.exit(main(sys.argv[1:]))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", child, "reduce", str(path), "-k", "1", "-t", target, "--rho", rho],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (code, "", f"error: {err}\n")


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
        (("theorems", "--count", "100001"), "graph count must be at most 100000"),
        # only the theorems battery draws a graph count
        (("lemma1", "--count", "7"), "a graph count applies only to the theorems and all suites, not 'lemma1'"),
        (("lemma2", "--count", "1"), "a graph count applies only to the theorems and all suites, not 'lemma2'"),
    ],
)
def test_verify_rejects_nonpositive_bounds(capsys, argv, message):
    code = main(["verify", *argv])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


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
    # the children import the pvcmon these tests import, installed or not
    src = str(Path(pvcmon.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    proc = subprocess.run(
        [sys.executable, "-m", "pvcmon.cli", "pvc", str(graph), "-t", "4", "--solver", "exact"],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert report["result"]["size"] == 2
    check = subprocess.run(
        [sys.executable, "-c", "from pvcmon import kernels; print(kernels.backend())"],
        capture_output=True,
        text=True,
        env=env,
    )
    assert check.stdout.strip() == "numpy"


@pytest.mark.parametrize("command", [("pvc", "-t", "0"), ("smon", "-t", "1")])
def test_header_above_the_vertex_limit_exits_2(capsys, tmp_path, monkeypatch, command):
    from pvcmon.graph import Graph

    def unreachable(*args):
        raise AssertionError("from_edges reached")

    monkeypatch.setattr(Graph, "from_edges", staticmethod(unreachable))
    path = tmp_path / "huge.txt"
    path.write_text("300000000 0\n")
    assert main([command[0], str(path), *command[1:]]) == 2
    assert capsys.readouterr() == ("", "error: line 1: n=300000000 exceeds the limit of 1000000 vertices\n")


def test_tree_dp_above_the_cell_limit_exits_2(capsys, tmp_path):
    # a 20,000-vertex path at t = 5,000 needs ~175 million table cells (~1.4 GB)
    path = tmp_path / "path.txt"
    path.write_text(to_edge_list_text(path_graph(20000)))
    assert main(["pvc", str(path), "-t", "5000"]) == 2
    assert capsys.readouterr() == (
        "", "error: tree DP needs 175,104,996 table cells, above the limit of 100,000,000\n")
