"""The command-line contract over drawn argument lists.

Every run of ``cli.main`` ends in an exit code of 0-5 with no traceback. A
failure prints nothing on stdout and one ``error:`` line (or argparse's
usage) on stderr; a success prints one JSON object whose witness passes the
checker that follows the definition.
"""

import contextlib
import io
import json
import random
from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from pvcmon.cli import main
from pvcmon.corpus import complete_bipartite, cycle_graph, path_graph, random_tree
from pvcmon.graph import Graph, coverage, to_edge_list_text
from pvcmon.monopoly import is_dynamic_monopoly, is_monopoly
from pvcmon.reductions import load_gadget
from pvcmon.verify import MAX_GRAPHS

GRAPHS = {
    "p3": path_graph(3),
    "c4": cycle_graph(4),
    "k23": complete_bipartite(2, 3),
    "tree": random_tree(9, random.Random(3)),
    "edgeless": Graph.from_edges(3, []),
    "empty": Graph.from_edges(0, []),
}
HUGE = "9" * 40
OVERSIZED = "9" * 5000  # beyond Python's 4,300-digit int parsing limit
MALFORMED = ("1/0", "1/-2", "0.5", "-1", HUGE, OVERSIZED, "x")
# C4's file with one fault each: the edge count, a self-loop, a duplicate
# edge, an id out of range, a token, the header's form, a negative order
C4_FAULTS = {
    "count": "4 5\n0 1\n1 2\n2 3\n0 3\n",
    "loop": "4 4\n0 1\n1 2\n2 2\n0 3\n",
    "duplicate": "4 4\n0 1\n1 2\n1 0\n0 3\n",
    "range": "4 4\n0 1\n1 2\n2 4\n0 3\n",
    "token": "4 4\n0 1\n1 x\n2 3\n0 3\n",
    "header": "4\n0 1\n1 2\n2 3\n0 3\n",
    "order": "-4 4\n0 1\n1 2\n2 3\n0 3\n",
}
RATIONALS = ("0", "1", "2", "5", "1/2", "1/3", "2/3", "3/2", "7/4", "+1/2", " 1/2 ",
             f"1/{HUGE}", f"{HUGE}/1{HUGE}", *MALFORMED)


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    """name -> (path, graph or None): the graphs above, a copy of one with a
    byte-order mark and CRLF line ends, files that hold no graph (C4 with
    one fault, a directory, a missing path, invalid UTF-8), and threshold
    files (zeros and full degrees) for each graph."""
    root = tmp_path_factory.mktemp("contract")
    out = {}
    for name, g in GRAPHS.items():
        text = to_edge_list_text(g)
        out[name] = (root / f"{name}.txt", g)
        out[name][0].write_text(text, encoding="utf-8")
        for kind, values in (("zeros", [0] * g.n), ("degrees", g.degrees)):
            path = root / f"{name}.{kind}"
            path.write_text("".join(f"{x}\n" for x in values), encoding="utf-8")
            out[f"{name}.{kind}"] = (path, None)
    out["c4_bom_crlf"] = (root / "c4_bom_crlf.txt", GRAPHS["c4"])
    out["c4_bom_crlf"][0].write_bytes(b"\xef\xbb\xbf" + to_edge_list_text(GRAPHS["c4"]).replace("\n", "\r\n").encode())
    out["directory"] = (root, None)
    out["missing"] = (root / "missing.txt", None)
    out["bad_utf8"] = (root / "bad_utf8.txt", None)
    out["bad_utf8"][0].write_bytes(b"3 1\n0 \xff\n")
    for fault, text in C4_FAULTS.items():
        out[f"c4_{fault}"] = (root / f"c4_{fault}.txt", None)
        out[f"c4_{fault}"][0].write_text(text, encoding="utf-8")
    return {name: (str(path), g) for name, (path, g) in out.items()}


def _mostly(valid, other):
    # a value from ``valid`` three draws in four, else one from ``other``
    return st.integers(0, 3).flatmap(lambda i: valid if i else other)


def _ints(lo, hi):
    # mostly integers in [lo, hi]; else ones at and just outside it, or malformed
    return _mostly(st.integers(lo, max(lo, hi)).map(str),
                   st.one_of(st.integers(lo - 2, hi + 2).map(str), st.sampled_from(MALFORMED)))


def _averages(g):
    # mostly averages p/2n from 0 to 2m/n, the largest valid one; else the
    # rationals above or 2m/n + 1/n
    if g is None or g.n == 0:
        return st.sampled_from(RATIONALS)
    valid = st.integers(0, 4 * g.m).map(lambda p: str(Fraction(p, 2 * g.n)))
    return _mostly(valid, st.sampled_from((*RATIONALS, str(Fraction(2 * g.m + 1, g.n)))))


@st.composite
def argvs(draw, files):
    """(argv, the graph its file holds or None) for one drawn run."""
    graph_files = sorted(name for name in files if "." not in name)
    valid = [name for name in graph_files if files[name][1] is not None]
    name = draw(_mostly(st.sampled_from(valid), st.sampled_from(graph_files)))
    path, g = files[name]
    n, m = (g.n, g.m) if g is not None else (4, 4)
    guard = None
    if draw(st.booleans()):
        guard = draw(_mostly(st.integers(0, 12).map(str), st.sampled_from(("-1", "-3", *MALFORMED))))
    argv = []
    if draw(st.booleans()):
        argv += ["--seed-order", draw(st.sampled_from(("id", "degree")))]
    command = draw(st.sampled_from(("pvc", "smon", "sdyn", "simulate", "reduce", "verify")))
    if command == "pvc":
        argv += ["pvc", path, "-t", draw(_ints(0, m))]
        if draw(st.booleans()):
            argv += ["--solver", draw(st.sampled_from(("auto", "exact", "tree", "greedy", "degreeGreedy", "bogus")))]
    elif command in ("smon", "sdyn"):
        argv += [command, path, "-t", draw(_averages(g))]
        if command == "sdyn" and draw(st.booleans()):
            argv.append("--oracle")
    elif command == "simulate":
        own = sorted(f for f in files if f.startswith(name + "."))
        thresholds = draw(_mostly(st.sampled_from(own or sorted(files)), st.sampled_from(sorted(files))))
        argv += ["simulate", path, files[thresholds][0]]
        if draw(st.booleans()):
            argv += ["--seed", *draw(st.lists(_ints(0, n - 1), max_size=3))]
    elif command == "reduce":
        rho = _mostly(st.sampled_from(("1/2", "1/3", "2/3", "3/5")), st.sampled_from(RATIONALS))
        argv += ["reduce", path, "-k", draw(_ints(0, n)), "-t", draw(_ints(0, m)), "--rho", draw(rho)]
    else:
        suite = draw(st.sampled_from(("lemma1", "lemma2", "theorems", "all", "bogus")))
        # above its cap a single suite refuses the bound, while "all" runs
        # its standard bounds, which are not small
        too_big = () if suite == "all" else ("7", "15", HUGE)
        small = st.integers(1, 3).map(str)
        argv += ["verify", suite, "--size-bound", draw(_mostly(small, st.sampled_from(("0", "-1", *too_big, *MALFORMED))))]
        if draw(st.booleans()):
            argv += ["--count", draw(_mostly(small, st.sampled_from(("0", "-1", str(MAX_GRAPHS + 1), *MALFORMED))))]
    # only pvc --solver auto|exact and sdyn --oracle take a guard; it is kept
    # on every pvc run (its other solvers refuse it) and on the other
    # commands, which refuse it, on one draw in 16, so they still mostly run
    if guard is not None and (command == "pvc" or "--oracle" in argv or draw(st.integers(0, 15)) == 7):
        argv[:0] = ["--guard", guard]
    return argv, g


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse's usage errors
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def _check_witness(argv, g, result):
    command = next(a for a in argv if a in ("pvc", "smon", "sdyn", "simulate", "reduce", "verify"))
    if command == "verify":
        assert all(report["passed"] for report in result["reports"])
        return
    assert g is not None
    if command == "pvc":
        t = int(argv[argv.index("-t") + 1])
        assert coverage(g, result["witness"]) == result["achieved_coverage"] >= t
        assert len(result["witness"]) == result["size"]
    elif command == "smon":
        assert is_monopoly(g, result["tau"], result["monopoly"])
        assert len(result["monopoly"]) == result["size"]
        assert sum(result["tau"]) == result["tau_total"] >= Fraction(result["required_total"])
    elif command == "sdyn":
        assert is_dynamic_monopoly(g, result["tau"], result["seed"])
        assert len(result["seed"]) == result["size"]
        assert sum(result["tau"]) == result["tau_total"] >= Fraction(result["required_total"])
        assert result.get("oracle", {"agrees": True})["agrees"]
    elif command == "simulate":
        layers = [set(layer) for layer in result["layers"]]
        assert sum(map(len, layers)) == len(set().union(*layers))
        assert (len(set().union(*layers)) == g.n) == result["activated_all"]
    else:
        inst = load_gadget(result["edge_list"], json.dumps(result["sidecar"]))
        assert (inst.graph.n, inst.graph.m) == (result["gadget_n"], result["gadget_m"])


@settings(max_examples=500, deadline=None, derandomize=True)
@given(st.data())
def test_cli_contract(files, data):
    argv, g = data.draw(argvs(files))
    code, out, err = _run(argv)
    assert code in range(6)
    assert "Traceback" not in out + err
    lines = [line for line in err.splitlines() if not line.startswith("warning: ")]
    if code:
        assert out == ""
        if err.startswith("usage: "):
            assert code == 2 and ": error: " in lines[-1]
        else:
            assert len(lines) == 1 and lines[0].startswith("error: "), err
    else:
        assert lines == []
        report = json.loads(out)
        assert isinstance(report, dict)
        _check_witness(argv, g, report["result"])
