import json
import math
import random
from fractions import Fraction

import pytest

from pvcmon import (
    GadgetConstructionError,
    Graph,
    build_gadget,
    gadget_edge_list,
    gadget_sidecar_json,
    load_gadget,
    pendant_triple_augment,
    reduction_chain,
    verify_lemma1,
    verify_lemma2,
)
from pvcmon.corpus import all_labeled_graphs, cycle_graph, path_graph, random_graph
from pvcmon.graph import walk
from pvcmon.reductions import ROLE_ORIGINAL, ROLE_PENDANT, gadget_parameters
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

    def test_float_rho_rejected(self):
        g = cycle_graph(4)
        for call in (
            lambda: build_gadget(g, 1, 2, 0.5),
            lambda: gadget_parameters(g, 1, 2, 0.5),
            lambda: verify_lemma2(g, 1, 2, 0.5),
            lambda: reduction_chain(g, 1, 2, 0.5),
            lambda: lemma2_battery(max_n=1, rhos=(0.5,)),
        ):
            with pytest.raises(TypeError):
                call()
        assert build_gadget(g, 1, 2, "1/2") == build_gadget(g, 1, 2, Fraction(1, 2))


class TestSerialization:
    def test_round_trip(self):
        inst = build_gadget(path_graph(3), 1, 1, Fraction(1, 3))
        again = load_gadget(gadget_edge_list(inst), gadget_sidecar_json(inst))
        assert again == inst

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
        for name, value in (("rho", "1/0"), ("r", None), ("s", "two"), ("roles", 5)):
            bad = {**json.loads(gadget_sidecar_json(inst)), name: value}
            with pytest.raises(GadgetConstructionError, match=f"field '{name}' is malformed"):
                load_gadget(gadget_edge_list(inst), json.dumps(bad))


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

    def test_guards(self):
        big = random_graph(9, 0.3, random.Random(0))
        with pytest.raises(ValueError):
            verify_lemma1(big, 1, 1)
        with pytest.raises(ValueError):
            verify_lemma2(big, 1, 1, Fraction(1, 2))
