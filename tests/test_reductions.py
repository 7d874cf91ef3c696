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
from pvcmon import (
    GadgetConstructionError,
    Graph,
    InfeasibleTargetError,
    build_gadget,
    gadget_edge_list,
    gadget_sidecar_json,
    load_gadget,
    pendant_triple_augment,
    pvc_rho_decide,
    reduction_chain,
    sdyn_decide,
    smon_decide,
    verify_lemma1,
    verify_lemma2,
)
from pvcmon.corpus import all_labeled_graphs, cycle_graph, path_graph, random_graph, random_tree
from pvcmon.graph import to_edge_list_text, walk
from pvcmon.reductions import ROLE_ORIGINAL, ROLE_PENDANT, _GadgetFamily, _layout, gadget_parameters
from pvcmon.verify import DEFAULT_RHOS, lemma2_battery

from util import is_chordal


class TestPendantAugment:
    def test_single_vertex_becomes_claw(self):
        g, roles = pendant_triple_augment(Graph.from_edges(1, []))
        assert g.n == 4 and g.m == 3
        assert g.degree(0) == 3
        assert roles[0] == ROLE_ORIGINAL and roles[3] == ROLE_PENDANT

    def test_single_edge(self):
        g, _ = pendant_triple_augment(Graph.from_edges(2, [(0, 1)]))
        assert g.n == 8 and g.m == 7

    def test_cycle_counts(self):
        g, _ = pendant_triple_augment(cycle_graph(4))
        assert g.n == 16 and g.m == 16

    def test_structure_preserved(self):
        rng = random.Random(3)
        for _ in range(15):
            g = random_graph(rng.randint(1, 6), 0.5, rng)
            aug, roles = pendant_triple_augment(g)
            assert aug.n == 4 * g.n and aug.m == g.m + 3 * g.n
            for v in range(g.n):
                assert aug.degree(v) == g.degree(v) + 3
            for u, v in g.edges:
                assert aug.has_edge(u, v)
            if walk(g).side is not None:
                assert walk(aug).side is not None
            if is_chordal(g):
                assert is_chordal(aug)


class TestBuildGadget:
    def test_golden_parameters_cycle(self):
        inst = build_gadget(cycle_graph(4), 1, 2, Fraction(1, 2))
        assert (inst.r, inst.s) == (25, 21)
        assert inst.graph.n == 63 and inst.graph.m == 63

    def test_golden_parameters_single_edge(self):
        inst = build_gadget(Graph.from_edges(2, [(0, 1)]), 1, 1, Fraction(1, 2))
        assert (inst.r, inst.s) == (12, 15)

    def test_star_center_degree(self):
        rng = random.Random(5)
        for _ in range(10):
            g = random_graph(rng.randint(1, 4), 0.5, rng)
            k = rng.randint(0, g.n)
            t = rng.randint(0, g.m)
            rho = rng.choice((Fraction(1, 3), Fraction(1, 2), Fraction(2, 3)))
            inst = build_gadget(g, k, t, rho)
            assert inst.graph.degree(inst.star_center) == inst.r + 2
            assert inst.s >= 1 and inst.r >= g.n + 3
            assert inst.graph.n == 4 * g.n + inst.r + 1 + inst.s
            assert inst.graph.m == g.m + 3 * g.n + inst.r + inst.s + 1

    def test_anchor_is_lowest_pendant(self):
        g = cycle_graph(4)
        inst = build_gadget(g, 1, 2, Fraction(1, 2))
        assert inst.pendant_anchor == g.n
        assert inst.graph.has_edge(inst.star_center, inst.pendant_anchor)
        assert inst.graph.has_edge(inst.star_center, inst.path_end)

    def test_parameter_validation(self):
        g = cycle_graph(4)
        with pytest.raises(ValueError):
            build_gadget(g, 1, 2, Fraction(3, 2))
        with pytest.raises(ValueError):
            build_gadget(g, 5, 2, Fraction(1, 2))
        with pytest.raises(ValueError):
            build_gadget(g, -1, 2, Fraction(1, 2))

    def test_path_length_failure_reported(self):
        # forcing s < 1 needs out-of-range inputs; a hugely negative target does it
        g = cycle_graph(4)
        with pytest.raises((GadgetConstructionError, ValueError)):
            build_gadget(g, 0, -50, Fraction(1, 2))

    def test_structure_preserved_on_bipartite_chordal(self):
        rng = random.Random(9)
        for _ in range(8):
            g = random_graph(rng.randint(1, 4), 0.5, rng)
            inst = build_gadget(g, rng.randint(0, g.n), rng.randint(0, g.m), Fraction(1, 2))
            if walk(g).side is not None:
                assert walk(inst.graph).side is not None
            if is_chordal(g):
                assert is_chordal(inst.graph)

    def test_parameters_helper_matches(self):
        g = cycle_graph(4)
        assert gadget_parameters(g, 1, 2, Fraction(1, 2)) == (25, 21)

    def test_integer_parameters_match_fraction_formula(self):
        # every (graph, k, t, rho) of the default lemma2 battery, plus more fractions
        def by_fractions(graph, k, t, rho):
            n, m = graph.n, graph.m
            r = math.ceil((rho / (1 - rho)) * (Fraction(n * (n - 1), 2) + 3 * n)) + n + 3
            s = math.floor((t + 3 * k + (1 - rho) * r + 1 - rho * (m + 3 * n)) / rho)
            return r, s

        checked = 0
        for rho in (*DEFAULT_RHOS, Fraction(1, 10), Fraction(3, 4), Fraction(5, 7)):
            for n in range(1, 5):
                for g in all_labeled_graphs(n):
                    for k in range(n + 1):
                        for t in range(g.m + 1):
                            assert gadget_parameters(g, k, t, rho) == by_fractions(g, k, t, rho)
                            checked += 1
        assert checked > 4113

    def test_parameters_refuse_what_build_refuses(self):
        # the same error, type and message, for every argument build_gadget
        # refuses, and the built gadget's r and s for every one it accepts
        c4, empty = cycle_graph(4), Graph.from_edges(0, [])
        half = Fraction(1, 2)
        for args in (
            (c4, -1, 2, half), (c4, 5, 2, half), (c4, 1, -1, half), (c4, 1, 5, half), (c4, -1, 5, half),
            (c4, 1, 2, 0), (c4, 1, 2, 1), (c4, 1, 2, "3/2"), (c4, 1, 2, "-1"), (c4, 1, 2, 0.5), (c4, 1.0, 2, half),
            (c4, 1, 2, "1/0"), (empty, 0, 0, half), (c4, 1, 2, Fraction(1, 10**9)), (c4, 1, 2, 1 - Fraction(1, 10**9)),
        ):
            with pytest.raises(Exception) as built:
                build_gadget(*args)
            with pytest.raises(Exception) as computed:
                gadget_parameters(*args)
            assert type(computed.value) is type(built.value), args
            assert str(computed.value) == str(built.value), args
        for g in (c4, path_graph(3), Graph.from_edges(1, [])):
            for rho in DEFAULT_RHOS:
                for k in range(g.n + 1):
                    for t in range(g.m + 1):
                        inst = build_gadget(g, k, t, rho)
                        assert gadget_parameters(g, k, t, rho) == (inst.r, inst.s)

    def test_float_rho_rejected(self):
        g = cycle_graph(4)
        for call in (
            lambda: build_gadget(g, 1, 2, 0.5),
            lambda: gadget_parameters(g, 1, 2, 0.5),
            lambda: verify_lemma2(g, 1, 2, 0.5),
            lambda: reduction_chain(g, 1, 2, 0.5),
        ):
            with pytest.raises(TypeError):
                call()
        assert build_gadget(g, 1, 2, "1/2") == build_gadget(g, 1, 2, Fraction(1, 2))


class TestGadgetFamily:
    def test_family_matches_an_independent_assembly(self):
        # every gadget of the default lemma2 battery, each (graph, rho) from
        # one family, equals the checked build of the graph's edges plus the
        # layout's for the same s
        built = 0
        for n in range(1, 5):
            for g in all_labeled_graphs(n):
                for rho in DEFAULT_RHOS:
                    family = _GadgetFamily(g, rho)
                    for k in range(n + 1):
                        for t in range(g.m + 1):
                            inst = family(k, t)
                            r, s = gadget_parameters(g, k, t, rho)
                            roles, star_center, path_end, anchor, edges = _layout(n, r, s)
                            assert inst.graph == Graph.from_edges(len(roles), [*g.edges, *edges])
                            assert (inst.rho, inst.r, inst.s, inst.roles) == (rho, r, s, roles)
                            assert (inst.star_center, inst.path_end, inst.pendant_anchor) == (
                                star_center, path_end, anchor)
                            built += 1
        assert built == 4113

    def test_family_builds_share_no_solver_state(self):
        g, rho = cycle_graph(4), Fraction(1, 2)
        family = _GadgetFamily(g, rho)
        first, other, again = family(1, 2), family(2, 4), family(1, 2)
        assert first.s != other.s
        assert first == again and first.graph is not again.graph
        assert other == build_gadget(g, 2, 4, rho)
        # deciding on two of them leaves the third, and the next build, fresh
        pvc_rho_decide(first.graph, 2, rho)
        pvc_rho_decide(other.graph, 3, rho)
        assert first.graph._pvc is not None and other.graph._pvc is not None
        assert first.graph._pvc is not other.graph._pvc
        assert again.graph._pvc is None
        assert family(1, 2).graph._pvc is None

    def test_family_checks_each_instance(self):
        family = _GadgetFamily(cycle_graph(4), Fraction(1, 2))
        for k, t, error, message in (
            (-1, 2, ValueError, "budget k=-1 outside [0, 4]"),
            (5, 2, ValueError, "budget k=5 outside [0, 4]"),
            (1, -1, ValueError, "negative coverage target -1"),
            (1, 5, InfeasibleTargetError, "target 5 exceeds edge count 4"),
        ):
            with pytest.raises(error) as caught:
                family(k, t)
            assert type(caught.value) is error and str(caught.value) == message
        assert family(1, 2) == build_gadget(cycle_graph(4), 1, 2, Fraction(1, 2))


class TestSerialization:
    def test_round_trip(self):
        inst = build_gadget(path_graph(3), 1, 1, Fraction(1, 3))
        again = load_gadget(gadget_edge_list(inst), gadget_sidecar_json(inst))
        assert again == inst

    def test_every_battery_gadget_loads(self):
        # every gadget lemma2_battery(max_n=3) checks matches its own layout,
        # and is the one gadget of its (graph, rho, s), which the battery
        # builds once and shares
        loaded = 0
        by_length = {}
        for n in range(1, 4):
            for g in all_labeled_graphs(n):
                for k in range(n + 1):
                    for t in range(g.m + 1):
                        for rho in DEFAULT_RHOS:
                            inst = build_gadget(g, k, t, rho)
                            assert load_gadget(gadget_edge_list(inst), gadget_sidecar_json(inst)) == inst
                            assert by_length.setdefault((g, rho, inst.s), inst) == inst
                            loaded += 1
        assert loaded == lemma2_battery(max_n=3).instances
        assert len(by_length) < loaded

    def test_sidecar_is_byte_stable(self):
        inst = build_gadget(cycle_graph(4), 1, 2, Fraction(1, 2))
        assert gadget_sidecar_json(inst) == gadget_sidecar_json(inst)
        assert gadget_edge_list(inst) == gadget_edge_list(inst)

    def test_tampered_sidecar_rejected(self):
        inst = build_gadget(path_graph(3), 1, 1, Fraction(1, 3))
        bad = gadget_sidecar_json(inst).replace(f'"r": {inst.r}', f'"r": {inst.r + 1}')
        assert bad != gadget_sidecar_json(inst)
        with pytest.raises(GadgetConstructionError):
            load_gadget(gadget_edge_list(inst), bad)


    def test_malformed_sidecar_rejected(self):
        inst = build_gadget(path_graph(3), 1, 1, Fraction(1, 3))
        payload = json.loads(gadget_sidecar_json(inst))
        del payload["path_end"]
        with pytest.raises(GadgetConstructionError, match="no 'path_end' field"):
            load_gadget(gadget_edge_list(inst), json.dumps(payload))
        for text in ("[]", "3", '"rho"', "null"):
            with pytest.raises(GadgetConstructionError, match="must be a JSON object"):
                load_gadget(gadget_edge_list(inst), text)
        for text, fault in (("{not json", "Expecting property name enclosed in double quotes: line 1 column 2"),
                            ("", "Expecting value: line 1 column 1")):
            with pytest.raises(GadgetConstructionError, match=f"^sidecar is not valid JSON: {fault}"):
                load_gadget(gadget_edge_list(inst), text)
        for name, value in (("rho", "1/0"), ("r", None), ("s", "two"), ("roles", 5)):
            bad = {**json.loads(gadget_sidecar_json(inst)), name: value}
            with pytest.raises(GadgetConstructionError, match=f"field '{name}' is malformed"):
                load_gadget(gadget_edge_list(inst), json.dumps(bad))
        # the golden C4 gadget; an id of n or more would index past the
        # roles, and id - n would alias the right vertex from the end
        inst = build_gadget(cycle_graph(4), 1, 2, Fraction(1, 2))
        n = inst.graph.n
        for name in ("star_center", "path_end", "pendant_anchor"):
            for value in (n, 10**9, -1, getattr(inst, name) - n):
                bad = {**json.loads(gadget_sidecar_json(inst)), name: value}
                with pytest.raises(GadgetConstructionError, match=f"{name} {value} is not a vertex id"):
                    load_gadget(gadget_edge_list(inst), json.dumps(bad))
        # a pendant, but not the one joined to the star center
        assert inst.roles[5] == ROLE_PENDANT and inst.pendant_anchor == 4
        bad = {**json.loads(gadget_sidecar_json(inst)), "pendant_anchor": 5}
        with pytest.raises(GadgetConstructionError, match="anchor must attach to the star center"):
            load_gadget(gadget_edge_list(inst), json.dumps(bad))

    def test_gadget_off_its_layout_rejected(self):
        # the golden C4 gadget (rho 1/2, so r = 25; rho 1/3 would give 16)
        inst = build_gadget(cycle_graph(4), 1, 2, Fraction(1, 2))
        edges, sidecar = gadget_edge_list(inst), json.loads(gadget_sidecar_json(inst))
        p = inst.path_end

        def rewired(drop, add):
            kept = [e for e in inst.graph.edges if e != drop] + [add]
            return to_edge_list_text(Graph.from_edges(inst.graph.n, kept))

        # a pendant and the star center trade roles; n stays 4
        swapped = list(inst.roles)
        swapped[4], swapped[inst.star_center] = swapped[inst.star_center], swapped[4]
        for text, fields, message in (
            (edges, {"rho": "3/2"}, "rho must lie strictly between 0 and 1, got 3/2"),
            (edges, {"rho": "-1"}, "rho must lie strictly between 0 and 1, got -1"),
            (edges, {"rho": "1/3"}, r"star size r=25 does not match r=16 for rho=1/3, n=4"),
            (edges, {"s": 10**12}, r"gadget order 1000000000042 \(r=25, s=1000000000000\) exceeds"),
            (to_edge_list_text(Graph.from_edges(inst.graph.n + 1, inst.graph.edges)), {},
             r"^gadget order 64 does not match 4n \+ r \+ 1 \+ s = 63$"),
            (edges, {"roles": swapped}, r"^roles do not match the layout for n=4, r=25, s=21$"),
            (rewired((p + 3, p + 4), (p + 2, p + 4)), {}, rf"unexpected edge \({p + 2}, {p + 4}\)"),
            (rewired((0, 5), (5, inst.star_center + 1)), {}, r"missing edge \(0, 5\)"),
        ):
            with pytest.raises(GadgetConstructionError, match=message):
                load_gadget(text, json.dumps({**sidecar, **fields}))


class TestEquivalences:
    def test_cycle_these_cases(self):
        c4 = cycle_graph(4)
        assert verify_lemma1(c4, 1, 2)
        assert verify_lemma1(c4, 1, 4)
        assert verify_lemma1(Graph.from_edges(2, []), 0, 0)

    def test_gadget_cases(self):
        assert verify_lemma2(cycle_graph(4), 1, 2, Fraction(1, 2))
        assert verify_lemma2(cycle_graph(4), 1, 4, Fraction(1, 2))
        assert verify_lemma2(path_graph(3), 1, 2, Fraction(1, 3))

    def test_chain(self):
        inst, ok = reduction_chain(cycle_graph(4), 1, 2, Fraction(1, 2))
        assert ok and inst.r == 25
        _, ok = reduction_chain(cycle_graph(4), 2, 4, Fraction(1, 2))
        assert ok
        _, ok = reduction_chain(path_graph(2), 0, 0, Fraction(1, 2))
        assert ok

    def test_small_exhaustive_slices(self):
        for g in all_labeled_graphs(3):
            for k in range(4):
                for t in range(g.m + 1):
                    assert verify_lemma1(g, k, t)
        for g in all_labeled_graphs(2):
            for rho in (Fraction(1, 3), Fraction(2, 3)):
                for k in range(g.n + 1):
                    for t in range(g.m + 1):
                        assert verify_lemma2(g, k, t, rho)

    def test_lemma1_checks_its_instance(self):
        # the decides under verify_lemma1 take k and t unchecked, and the
        # greedy never stops on a target above the edge count, so the calls
        # run in a child process that a regression cannot hang
        child = (
            "from pvcmon import verify_lemma1\n"
            "from pvcmon.corpus import path_graph\n"
            "for k, t in ((-1, 1), (4, 1), (1, -1), (1, 3)):\n"
            "    try:\n"
            "        verify_lemma1(path_graph(3), k, t)\n"
            "    except ValueError as exc:\n"
            "        print(exc)\n"
        )
        src = str(Path(pvcmon.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
        proc = subprocess.run([sys.executable, "-c", child], capture_output=True, text=True, env=env, timeout=60)
        assert (proc.returncode, proc.stderr) == (0, "")
        assert proc.stdout.splitlines() == [
            "budget k=-1 outside [0, 3]",
            "budget k=4 outside [0, 3]",
            "negative coverage target -1",
            "target 3 exceeds edge count 2",
        ]

    @pytest.mark.parametrize("call, error, message", [
        pytest.param(lambda: verify_lemma2(cycle_graph(4), 1, 2, "3/2"), ValueError,
                     "rho must lie strictly between 0 and 1, got 3/2", id="verify_lemma2-rho-above-1"),
        pytest.param(lambda: verify_lemma2(cycle_graph(4), -1, 2, "1/2"), ValueError, "budget k=-1 outside [0, 4]",
                     id="verify_lemma2-negative-budget"),
        pytest.param(lambda: verify_lemma2(cycle_graph(4), 5, 2, "1/2"), ValueError, "budget k=5 outside [0, 4]",
                     id="verify_lemma2-budget-above-n"),
        pytest.param(lambda: verify_lemma2(cycle_graph(4), 1, 5, "1/2"), InfeasibleTargetError,
                     "target 5 exceeds edge count 4", id="verify_lemma2-target-above-m"),
        pytest.param(lambda: verify_lemma2(cycle_graph(4), 1, 2, 0.5), TypeError,
                     "pass an exact rational (int, 'p/q' string, or Fraction), not a float",
                     id="verify_lemma2-float-rho"),
        pytest.param(lambda: reduction_chain(cycle_graph(4), 1, 2, 0), ValueError,
                     "rho must lie strictly between 0 and 1, got 0", id="reduction_chain-rho-0"),
        pytest.param(lambda: reduction_chain(cycle_graph(4), 1, -1, "1/2"), ValueError, "negative coverage target -1",
                     id="reduction_chain-negative-target"),
        pytest.param(lambda: reduction_chain(cycle_graph(4), 5, 2, "1/2"), ValueError, "budget k=5 outside [0, 4]",
                     id="reduction_chain-budget-above-n"),
        pytest.param(lambda: reduction_chain(cycle_graph(4), 1, 5, "1/2"), InfeasibleTargetError,
                     "target 5 exceeds edge count 4", id="reduction_chain-target-above-m"),
        pytest.param(lambda: build_gadget(Graph.from_edges(0, []), 0, 0, "1/2"), ValueError,
                     "gadget needs at least one original vertex", id="build_gadget-empty-graph"),
        pytest.param(lambda: build_gadget(cycle_graph(4), 0, -1, "1/2"), ValueError, "negative coverage target -1",
                     id="build_gadget-negative-target"),
        pytest.param(lambda: smon_decide(cycle_graph(4), 1, 2), ValueError,
                     "k factor must lie strictly between 0 and 2, got 2", id="smon_decide-factor-2"),
        pytest.param(lambda: smon_decide(cycle_graph(4), -1, 1), ValueError, "budget must be nonnegative, got -1",
                     id="smon_decide-negative-cap"),
        pytest.param(lambda: smon_decide(cycle_graph(4), 1, 0.5), TypeError,
                     "pass an exact rational (int, 'p/q' string, or Fraction), not a float",
                     id="smon_decide-float-factor"),
        pytest.param(lambda: sdyn_decide(cycle_graph(4), 1, 1), ValueError,
                     "k factor must lie strictly between 1 and 2, got 1", id="sdyn_decide-factor-1"),
        pytest.param(lambda: sdyn_decide(cycle_graph(4), -1, "3/2"), ValueError, "budget must be nonnegative, got -1",
                     id="sdyn_decide-negative-cap"),
        # the factor, then the empty graph's density, then the cap
        pytest.param(lambda: smon_decide(Graph.from_edges(0, []), -1, 2), ValueError,
                     "k factor must lie strictly between 0 and 2, got 2", id="smon_decide-empty-factor-first"),
        pytest.param(lambda: sdyn_decide(Graph.from_edges(0, []), -1, "3/2"), ValueError,
                     "edge density undefined for the empty graph", id="sdyn_decide-empty-density-before-cap"),
        pytest.param(lambda: smon_decide(Graph.from_edges(0, []), 1, 1), ValueError,
                     "edge density undefined for the empty graph", id="smon_decide-empty-density"),
        pytest.param(lambda: sdyn_decide(Graph.from_edges(0, []), 1, "3/2"), ValueError,
                     "edge density undefined for the empty graph", id="sdyn_decide-empty-density"),
    ])
    def test_decision_errors(self, call, error, message):
        # the verifiers and decide forms name each fault with its own type
        # and message, before anything is decided
        with pytest.raises(error) as caught:
            call()
        assert type(caught.value) is error and str(caught.value) == message

    def test_decide_caps_and_sidecars_keep_their_own_checks(self):
        # a decide cap above n is a valid question, which the greedy settles,
        # so only a negative cap is refused, in pvc_rho_decide's words, which
        # the monopoly decides ask; a sidecar's rho out of range is a
        # construction failure
        g = cycle_graph(4)
        assert pvc_rho_decide(g, g.n + 5, Fraction(1, 2))
        assert smon_decide(g, g.n + 5, 1)
        assert sdyn_decide(g, g.n + 5, "3/2")
        for call, message in (
            (lambda: pvc_rho_decide(g, -1, Fraction(1, 2)), "budget must be nonnegative, got -1"),
            (lambda: smon_decide(g, -1, 1), "budget must be nonnegative, got -1"),
            (lambda: sdyn_decide(g, -1, "3/2"), "budget must be nonnegative, got -1"),
        ):
            with pytest.raises(ValueError) as caught:
                call()
            assert type(caught.value) is ValueError and str(caught.value) == message
        inst = build_gadget(g, 1, 2, Fraction(1, 2))
        sidecar = {**json.loads(gadget_sidecar_json(inst)), "rho": "3/2"}
        with pytest.raises(GadgetConstructionError) as caught:
            load_gadget(gadget_edge_list(inst), json.dumps(sidecar))
        assert str(caught.value) == "rho must lie strictly between 0 and 1, got 3/2"

    def test_no_size_guard(self):
        # the verifiers decide like every decide form, whatever n is
        big = random_graph(9, 0.3, random.Random(0))
        assert verify_lemma1(big, 1, 1)
        assert verify_lemma2(big, 1, 1, Fraction(1, 2))
        assert verify_lemma1(path_graph(9), 1, 1)
        assert verify_lemma2(path_graph(7), 1, 1, "1/2")
        assert reduction_chain(cycle_graph(7), 2, 5, "1/3")[1]


# the hardness chain G -> G' -> H at rho = 1/2 on a graph with cycles and on
# a tree; the tree's gadgets are trees of up to 944 vertices
CHAIN_GRAPHS = (random_graph(16, 0.3, random.Random(1)), random_tree(24, random.Random(1)))


class TestChainAtScale:
    @pytest.mark.parametrize("g", CHAIN_GRAPHS, ids=("gnp16", "tree24"))
    def test_chain_holds_at_every_instance(self, g):
        # Smon at 2 rho and Sdyn at 1 + rho with k + 1 seeds ask H's question
        # at ceil(rho m_H), the paper's Smon/Sdyn at k eps(G); a gadget of a
        # bipartite graph is bipartite, the class the hardness is claimed for
        rho = Fraction(1, 2)
        bipartite = walk(g).side is not None
        for k in range(g.n + 1):
            for t in range(g.m + 1):
                assert verify_lemma2(g, k, t, rho)
                inst, ok = reduction_chain(g, k, t, rho)
                assert ok
                h = inst.graph
                right = pvc_rho_decide(h, k + 1, rho)
                assert smon_decide(h, k + 1, 2 * rho) == right == sdyn_decide(h, k + 1, 1 + rho)
                if bipartite:
                    assert walk(h).side is not None

    def test_chain_sides_match_ilp(self):
        # each side against an integer program at its own target:
        # <G', k, t + 3k> and <H, k + 1, ceil(rho m_H)>
        pytest.importorskip("scipy")
        from pvcmon.oracles import min_cover_size_ilp
        from pvcmon.pvc import _decide

        rho, rng = Fraction(1, 2), random.Random(2)
        for g in CHAIN_GRAPHS:
            augmented, _ = pendant_triple_augment(g)
            for _ in range(3):
                k, t = rng.randint(0, g.n), rng.randint(0, g.m)
                h = build_gadget(g, k, t, rho).graph
                target = math.ceil(rho * h.m)
                assert _decide(augmented, t + 3 * k, k) == (min_cover_size_ilp(augmented, t + 3 * k) <= k)
                assert pvc_rho_decide(h, k + 1, rho) == (min_cover_size_ilp(h, target) <= k + 1)
