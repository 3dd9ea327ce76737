"""Integration: the full SPMD MCM-DIST against the serial oracle."""

import numpy as np
import pytest

from repro.matching.mcm_dist import relabeled, run_mcm_dist
from repro.matching.validate import cardinality, is_valid_matching, verify_maximum
from repro.sparse import COO, CSC

from ..matching.conftest import scipy_optimum
from ..helpers import coo_from_edges


def random_coo(n1, n2, m, seed):
    rng = np.random.default_rng(seed)
    return COO(n1, n2, rng.integers(0, n1, m), rng.integers(0, n2, m))


@pytest.mark.parametrize("pr,pc", [(1, 1), (1, 2), (2, 2), (2, 3), (3, 3)])
def test_mcm_dist_optimal_on_grids(pr, pc):
    coo = random_coo(40, 45, 260, pr * 10 + pc)
    a = CSC.from_coo(coo)
    mate_r, mate_c, stats = run_mcm_dist(coo, pr, pc)
    assert is_valid_matching(a, mate_r, mate_c)
    assert cardinality(mate_r) == scipy_optimum(a)
    assert verify_maximum(a, mate_r, mate_c)
    assert stats.final_cardinality == cardinality(mate_r)
    assert stats.initial_cardinality > 0  # greedy init found something


def test_mcm_dist_augments_level_parallel():
    """Every phase that finds paths augments them level-parallel: on the
    grid, or in the serial tail's retrace of the hand-off phase."""
    coo = random_coo(35, 35, 200, 77)
    a = CSC.from_coo(coo)
    mate_r, mate_c, stats = run_mcm_dist(coo, 2, 2)
    assert cardinality(mate_r) == scipy_optimum(a)
    assert stats.augment_level_calls == stats.phases - max(stats.tail_phases, 1) > 0


def test_mcm_dist_no_init():
    coo = random_coo(30, 30, 150, 5)
    a = CSC.from_coo(coo)
    mate_r, mate_c, stats = run_mcm_dist(coo, 2, 2, init="none")
    assert stats.initial_cardinality == 0
    assert cardinality(mate_r) == scipy_optimum(a)


def test_mcm_dist_matches_serial_matching_exactly():
    """With the deterministic minParent semiring and no initializer, the
    distributed run must augment along the same trees as the serial
    matrix-algebra implementation and produce the SAME mate vectors."""
    from repro.matching import ms_bfs_mcm

    from repro.sparse.permute import unpermute_matching

    coo = random_coo(30, 32, 180, 21)
    # the serial engine solves the labels the distributed one does
    rel, rp, cp = relabeled(coo)
    s_r, s_c, _ = ms_bfs_mcm(CSC.from_coo(rel), augment_mode="level")
    s_r, s_c = unpermute_matching(s_r, s_c, rp, cp)
    d_r, d_c, _ = run_mcm_dist(coo, 2, 2, init="none")
    assert np.array_equal(s_r, d_r)
    assert np.array_equal(s_c, d_c)


def test_mcm_dist_rectangular_and_sparse_corner_cases():
    for coo in [
        random_coo(5, 60, 90, 1),
        random_coo(60, 5, 90, 2),
        coo_from_edges(3, 3, [(0, 0), (1, 1), (2, 2)]),
        COO.empty(4, 4),
    ]:
        a = CSC.from_coo(coo)
        mate_r, mate_c, _ = run_mcm_dist(coo, 2, 2)
        assert is_valid_matching(a, mate_r, mate_c)
        assert cardinality(mate_r) == scipy_optimum(a)


def test_mcm_dist_structured_suite_graph():
    """End-to-end on a road-like mesh stand-in (long diameter)."""
    from repro.graphs import generators as G

    coo = G.mesh_rect(8, 8, drop=0.1, seed=3)
    a = CSC.from_coo(coo)
    mate_r, mate_c, stats = run_mcm_dist(coo, 2, 2)
    assert cardinality(mate_r) == scipy_optimum(a)
    assert stats.phases >= 1


def test_mcm_dist_rejects_bad_init():
    """Mindegree and Karp-Sipser are the serial engine's only (Fig. 3)."""
    coo = random_coo(10, 10, 30, 0)
    for init in ("mindegree-not-implemented", "mindegree", "karp-sipser"):
        with pytest.raises(ValueError, match="greedy/none"):
            run_mcm_dist(coo, 1, 1, init=init)


@pytest.mark.parametrize("init", ["greedy", "none"])
def test_mcm_dist_all_inits_agree(init):
    coo = random_coo(50, 55, 280, 123)
    a = CSC.from_coo(coo)
    mate_r, _, _ = run_mcm_dist(coo, 2, 2, init=init)
    assert cardinality(mate_r) == scipy_optimum(a)
