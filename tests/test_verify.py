"""The verification batteries: what a failure carries, and what the theorems battery holds."""

import hashlib
import json
import weakref
from fractions import Fraction

import pvcmon.verify as verify
from pvcmon.corpus import random_graph
from pvcmon.monopoly import SmonResult
from pvcmon.verify import _feasible_averages, lemma2_battery, run_suite, theorem_battery, theorem_corpus

# sha256 of the `verify all` payloads without their timing fields, recorded
# before the batteries decided without instance objects and grew each gadget
# from one fixed part per (graph, rho)
VERIFY_DIGEST = "e730ae071afe189ccfee05abdfcf5637f2396e7868e452a580be74e9deac5973"


def test_verify_all_payloads_are_pinned():
    payloads = []
    for report in run_suite("all"):
        payload = report.to_payload()
        del payload["elapsed_seconds"], payload["instances_per_second"]
        payloads.append(payload)
    counts = [(p["suite"], p["instances"], len(p["flagged"])) for p in payloads]
    assert counts == [("lemma1", 38235, 0), ("lemma2", 4113, 840), ("theorems", 3204, 0),
                      ("witness-identities", 3742, 0)]
    digest = hashlib.sha256(json.dumps(payloads, sort_keys=True).encode()).hexdigest()
    assert digest == VERIFY_DIGEST


def test_a_wrong_static_size_is_one_theorem_failure(monkeypatch):
    smon = verify.smon
    calls = []

    def off_by_one_once(graph, t):
        res = smon(graph, t)
        calls.append((graph, t))
        return SmonResult(res.size + 1, res.monopoly, res.tau) if len(calls) == 1 else res

    monkeypatch.setattr(verify, "smon", off_by_one_once)
    report = theorem_battery(n_graphs=3, max_n=5, seed=11)
    graph, t = calls[0]
    assert t == _feasible_averages(next(theorem_corpus(3, 5, 11)))[0]
    assert len(report.failures) == 1
    failure = report.failures[0]
    assert list(failure) == ["n", "edges", "t", "problems"]
    assert failure["n"] == graph.n and failure["edges"] == [list(e) for e in graph.edges]
    assert failure["t"] == str(t)
    assert failure["problems"][0].startswith("static size ")
    assert report.instances == len(calls)


def test_lemma2_failures_name_their_own_instance(monkeypatch):
    # with the right side inverted every instance fails; instances that share
    # a gadget still report their own k and t, and the gadget's structure
    monkeypatch.setattr(verify, "pvc_rho_decide", lambda *args: None)
    report = lemma2_battery(max_n=2, rhos=(Fraction(1, 2),))
    assert len(report.failures) == report.instances == 2 * 1 + 3 * (1 + 2)
    keys = [(f["n"], str(f["edges"]), f["k"], f["t"]) for f in report.failures]
    assert len(set(keys)) == report.instances
    assert all(f["structural_ok"] and not f["equivalent"] for f in report.failures)


def test_theorem_graphs_are_freed_one_at_a_time(monkeypatch):
    # each graph, with the answers solve_pvc keeps on it, is freed once its
    # averages are checked, so the battery's memory does not grow with the
    # count; while the next graph is drawn only the last one is still held
    made, alive = [], []

    def tracked(*args):
        alive.append(sum(ref() is not None for ref in made))
        graph = random_graph(*args)
        made.append(weakref.ref(graph))
        return graph

    monkeypatch.setattr(verify, "random_graph", tracked)
    report = theorem_battery(n_graphs=40, max_n=6, seed=3)
    assert len(made) == 40 and report.passed
    assert max(alive) == 1

