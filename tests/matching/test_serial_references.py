"""Serial reference algorithms (Hopcroft-Karp, Pothen-Fan, single-source)
against the scipy and networkx oracles."""

import numpy as np
import pytest

from repro.sparse import COO, CSC
from repro.matching import hopcroft_karp, pothen_fan, single_source_mcm
from repro.matching.validate import cardinality, is_valid_matching, verify_maximum

from .conftest import random_bipartite, scipy_optimum
from ..helpers import coo_from_edges

ALGOS = [hopcroft_karp, pothen_fan, single_source_mcm]


@pytest.mark.parametrize("algo", ALGOS)
def test_empty_graph(algo):
    a = CSC.from_coo(COO.empty(4, 3))
    mr, mc = algo(a)
    assert cardinality(mr) == 0
    assert is_valid_matching(a, mr, mc)


@pytest.mark.parametrize("algo", ALGOS)
def test_perfect_matching_on_identity(algo):
    a = CSC.from_coo(COO(6, 6, np.arange(6), np.arange(6)))
    mr, mc = algo(a)
    assert cardinality(mr) == 6
    assert np.array_equal(mr, np.arange(6))


@pytest.mark.parametrize("algo", ALGOS)
def test_path_graph_needs_augmentation(algo):
    """A path r0-c0-r1-c1: maximum matching is 2 but a bad greedy start
    (r1,c0) yields 1 — the algorithm must find the augmenting path."""
    a = CSC.from_coo(coo_from_edges(2, 2, [(0, 0), (1, 0), (1, 1)]))
    init_r = np.array([-1, 0], dtype=np.int64)
    init_c = np.array([1, -1], dtype=np.int64)
    mr, mc = algo(a, init_r, init_c)
    assert cardinality(mr) == 2
    assert verify_maximum(a, mr, mc)


@pytest.mark.parametrize("algo", ALGOS)
def test_crown_graph(algo):
    """Complete bipartite minus perfect matching (crown): still has a
    perfect matching for n >= 2... exercised at n=5."""
    n = 5
    edges = [(i, j) for i in range(n) for j in range(n) if i != j]
    a = CSC.from_coo(coo_from_edges(n, n, edges))
    mr, mc = algo(a)
    assert cardinality(mr) == n
    assert verify_maximum(a, mr, mc)


@pytest.mark.parametrize("algo", ALGOS)
def test_structurally_deficient(algo):
    """3 columns sharing one row: cardinality 1."""
    a = CSC.from_coo(coo_from_edges(1, 3, [(0, 0), (0, 1), (0, 2)]))
    mr, mc = algo(a)
    assert cardinality(mr) == 1
    assert verify_maximum(a, mr, mc)


@pytest.mark.parametrize("algo", ALGOS)
@pytest.mark.parametrize("seed", range(8))
def test_random_graphs_match_scipy(algo, seed):
    rng = np.random.default_rng(seed)
    n1, n2 = int(rng.integers(1, 90)), int(rng.integers(1, 90))
    m = int(rng.integers(0, 4 * max(n1, n2)))
    a = random_bipartite(n1, n2, m, seed + 1000)
    mr, mc = algo(a)
    assert is_valid_matching(a, mr, mc)
    assert cardinality(mr) == scipy_optimum(a)
    assert verify_maximum(a, mr, mc)


@pytest.mark.parametrize("algo", ALGOS)
def test_respects_initial_matching(algo):
    """Starting from a partial matching must preserve validity and still
    reach the optimum."""
    a = random_bipartite(40, 40, 160, 7)
    from repro.matching import greedy_maximal

    init_r, init_c = greedy_maximal(a)
    mr, mc = algo(a, init_r, init_c)
    assert is_valid_matching(a, mr, mc)
    assert cardinality(mr) == scipy_optimum(a)


def test_agreement_with_networkx():
    import networkx as nx

    a = random_bipartite(50, 60, 300, 3)
    coo = a.to_coo()
    g = nx.Graph()
    g.add_nodes_from((f"r{i}" for i in range(50)), bipartite=0)
    g.add_nodes_from((f"c{j}" for j in range(60)), bipartite=1)
    g.add_edges_from((f"r{i}", f"c{j}") for i, j in zip(coo.rows, coo.cols))
    top = {f"r{i}" for i in range(50)}
    nx_m = nx.bipartite.hopcroft_karp_matching(g, top_nodes=top)
    nx_card = sum(1 for k in nx_m if k.startswith("r"))
    mr, _ = hopcroft_karp(a)
    assert cardinality(mr) == nx_card


def test_hopcroft_karp_phase_count_is_small():
    """HK needs O(√n) phases; on a random graph it should terminate fast
    even from an empty matching (sanity check that layering works)."""
    a = random_bipartite(200, 200, 1200, 11)
    mr, mc = hopcroft_karp(a)
    assert cardinality(mr) == scipy_optimum(a)


def test_rectangular_wide_and_tall():
    for (n1, n2) in [(5, 50), (50, 5)]:
        a = random_bipartite(n1, n2, 100, n1 * 7 + n2)
        for algo in ALGOS:
            mr, mc = algo(a)
            assert cardinality(mr) == scipy_optimum(a)
            assert verify_maximum(a, mr, mc)
