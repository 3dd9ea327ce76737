"""MS-BFS-Graft: tree grafting correctness and savings."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.sparse import COO, CSC, SR_RAND_ROOT
from repro.graphs import rmat
from repro.matching import greedy_maximal, ms_bfs_graft, ms_bfs_mcm
from repro.matching.validate import cardinality, is_valid_matching, verify_maximum

from .conftest import random_bipartite, scipy_optimum


@pytest.mark.parametrize("seed", range(8))
def test_graft_reaches_optimum(seed):
    rng = np.random.default_rng(seed)
    n1, n2 = int(rng.integers(1, 80)), int(rng.integers(1, 80))
    a = random_bipartite(n1, n2, int(rng.integers(0, 5 * max(n1, n2))), seed + 600)
    mr, mc, stats = ms_bfs_graft(a)
    assert is_valid_matching(a, mr, mc)
    assert cardinality(mr) == scipy_optimum(a)
    assert verify_maximum(a, mr, mc)
    assert stats.final_cardinality == cardinality(mr)


def test_graft_with_initializer():
    a = random_bipartite(60, 60, 300, 5)
    ir, ic = greedy_maximal(a)
    mr, mc, stats = ms_bfs_graft(a, ir, ic)
    assert cardinality(mr) == scipy_optimum(a)
    assert stats.initial_cardinality == cardinality(ir)


def test_graft_terminates_with_fresh_confirmation():
    """The final phase must be a from-scratch phase that found nothing —
    guaranteed by stats: the last entry of paths_per_phase is 0."""
    a = random_bipartite(50, 50, 220, 11)
    _, _, stats = ms_bfs_graft(a)
    assert stats.paths_per_phase[-1] == 0


def test_graft_saves_traversals_on_skewed_graphs():
    """The headline of the MS-BFS-Graft technique: fewer edge traversals on
    skewed (RMAT/G500) inputs than rebuild-every-phase MS-BFS."""
    a = CSC.from_coo(rmat.g500(scale=12, seed=4))
    ir, ic = greedy_maximal(a)
    _, _, graft = ms_bfs_graft(a, ir, ic)
    _, _, plain = ms_bfs_mcm(a, ir, ic)
    assert graft.final_cardinality == plain.final_cardinality
    assert graft.edges_traversed < plain.edges_traversed


def test_graft_randomized_semiring():
    a = random_bipartite(60, 60, 280, 21)
    mr, mc, _ = ms_bfs_graft(a, semiring=SR_RAND_ROOT, rng=np.random.default_rng(3))
    assert cardinality(mr) == scipy_optimum(a)


def test_graft_empty_graph_and_perfect_start():
    a = CSC.from_coo(COO.empty(4, 4))
    mr, mc, stats = ms_bfs_graft(a)
    assert cardinality(mr) == 0 and stats.phases == 1
    ident = CSC.from_coo(COO(5, 5, np.arange(5), np.arange(5)))
    ir = np.arange(5, dtype=np.int64)
    mr, mc, stats = ms_bfs_graft(ident, ir, ir.copy())
    assert cardinality(mr) == 5
    assert stats.paths_per_phase == [0]


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 30), st.integers(1, 30), st.integers(0, 120), st.integers(0, 10_000))
def test_graft_property_agrees_with_plain_msbfs(n1, n2, nnz, seed):
    rng = np.random.default_rng(seed)
    a = CSC.from_coo(COO(n1, n2, rng.integers(0, n1, nnz), rng.integers(0, n2, nnz)))
    g = ms_bfs_graft(a)[2].final_cardinality
    p = ms_bfs_mcm(a)[2].final_cardinality
    assert g == p == scipy_optimum(a)
