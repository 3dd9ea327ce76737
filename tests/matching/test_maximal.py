"""Maximal-matching initializers: serial and round-synchronous variants."""

import numpy as np
import pytest

from repro.sparse import COO, CSC
from repro.matching import (
    MaximalHooks,
    dynamic_mindegree,
    greedy_maximal,
    greedy_rounds,
    karp_sipser,
    karp_sipser_rounds,
    mindegree_rounds,
)
from repro.matching.validate import cardinality, is_maximal_matching, is_valid_matching

from .conftest import random_bipartite, scipy_optimum
from ..helpers import coo_from_edges

SERIAL = [greedy_maximal, karp_sipser, dynamic_mindegree]
ROUNDS = [greedy_rounds, karp_sipser_rounds, mindegree_rounds]


@pytest.mark.parametrize("algo", SERIAL)
@pytest.mark.parametrize("seed", range(6))
def test_serial_valid_maximal_and_half_approx(algo, seed):
    rng = np.random.default_rng(seed)
    n1, n2 = int(rng.integers(1, 70)), int(rng.integers(1, 70))
    a = random_bipartite(n1, n2, int(rng.integers(0, 5 * max(n1, n2))), seed)
    mr, mc = algo(a, np.random.default_rng(seed))
    assert is_valid_matching(a, mr, mc)
    assert is_maximal_matching(a, mr, mc)
    assert 2 * cardinality(mr) >= scipy_optimum(a)


@pytest.mark.parametrize("fn", ROUNDS)
@pytest.mark.parametrize("seed", range(6))
def test_rounds_valid_maximal_and_half_approx(fn, seed):
    rng = np.random.default_rng(seed)
    n1, n2 = int(rng.integers(1, 70)), int(rng.integers(1, 70))
    a = random_bipartite(n1, n2, int(rng.integers(0, 5 * max(n1, n2))), seed + 50)
    res = fn(a)
    assert is_valid_matching(a, res.mate_r, res.mate_c)
    assert is_maximal_matching(a, res.mate_r, res.mate_c)
    assert 2 * res.cardinality >= scipy_optimum(a)
    assert res.rounds >= (1 if res.cardinality else 0)


@pytest.mark.parametrize("algo", SERIAL)
def test_degree_one_chain_karp_sipser_optimal(algo):
    """On a path graph Karp-Sipser is optimal (degree-1 rule is exact);
    greedy may or may not be.  All must at least produce maximal."""
    # path: r0-c0-r1-c1-r2-c2 ... (P_11 with 6 rows / 5 cols)
    edges = []
    for i in range(5):
        edges += [(i, i), (i + 1, i)]
    a = CSC.from_coo(coo_from_edges(6, 5, edges))
    mr, mc = algo(a, np.random.default_rng(0))
    assert is_maximal_matching(a, mr, mc)
    if algo is karp_sipser:
        assert cardinality(mr) == scipy_optimum(a) == 5


def test_karp_sipser_quality_on_structured_graph():
    """Karp-Sipser's degree-1 rule shines on graphs with many pendant
    vertices; it must beat or match greedy there."""
    rng = np.random.default_rng(5)
    # core random graph + many pendant columns hanging off random rows
    n1, core_cols, pendants = 120, 60, 120
    rows = rng.integers(0, n1, 500)
    cols = rng.integers(0, core_cols, 500)
    prows = rng.integers(0, n1, pendants)
    pcols = np.arange(core_cols, core_cols + pendants)
    a = CSC.from_coo(COO(
        n1, core_cols + pendants,
        np.concatenate([rows, prows]),
        np.concatenate([cols, pcols]),
    ))
    g, _ = greedy_maximal(a, np.random.default_rng(0))
    k, _ = karp_sipser(a, np.random.default_rng(0))
    assert cardinality(k) >= cardinality(g)


def test_mindegree_not_worse_than_greedy_on_average():
    wins = ties = losses = 0
    for seed in range(12):
        a = random_bipartite(100, 100, 420, seed * 13 + 1)
        g, _ = greedy_maximal(a, np.random.default_rng(0))
        d, _ = dynamic_mindegree(a, np.random.default_rng(0))
        cg, cd = cardinality(g), cardinality(d)
        wins += cd > cg
        ties += cd == cg
        losses += cd < cg
    assert wins + ties >= losses  # mindegree at least holds its ground


def test_karp_sipser_rounds_pay_more_rounds_on_long_chains():
    """The Fig. 3 phenomenon: KS's degree-1 cascade serializes on a long
    path, needing far more bulk-synchronous rounds than greedy."""
    n = 60
    edges = []
    for i in range(n - 1):
        edges += [(i, i), (i + 1, i)]
    a = CSC.from_coo(coo_from_edges(n, n - 1, edges))
    ks = karp_sipser_rounds(a)
    gr = greedy_rounds(a)
    assert ks.rounds > gr.rounds
    # and KS is exact on the chain
    assert ks.cardinality == scipy_optimum(a)


def test_rounds_hooks_receive_traffic():
    events = {"explore": 0, "resolve": 0, "update": 0, "rounds": 0, "edges": 0}

    class H(MaximalHooks):
        def on_explore(self, algo, cr, cc):
            events["explore"] += 1
            events["edges"] += cr.size
            assert cr.size == cc.size

        def on_resolve(self, algo, p):
            events["resolve"] += 1

        def on_update(self, algo, rt, ct):
            events["update"] += 1

        def on_round_end(self, algo, matched, idx):
            events["rounds"] += 1
            assert algo == "mindegree"

    a = random_bipartite(50, 50, 200, 3)
    res = mindegree_rounds(a, hooks=H())
    assert events["explore"] >= res.rounds
    assert events["rounds"] == res.rounds
    assert events["edges"] > 0


def test_rounds_empty_graph():
    a = CSC.from_coo(COO.empty(5, 5))
    for fn in ROUNDS:
        res = fn(a)
        assert res.cardinality == 0
        assert res.rounds == 0


def test_rounds_on_complete_bipartite():
    a = CSC.from_coo(coo_from_edges(4, 4, [(i, j) for i in range(4) for j in range(4)]))
    for fn in ROUNDS:
        res = fn(a)
        # complete bipartite: any maximal matching is perfect
        assert res.cardinality == 4
