"""Integration: the full SPMD MCM-DIST against the serial oracle."""

import numpy as np
import pytest

from repro.matching.mcm_dist import relabeled, run_mcm_dist
from repro.matching.validate import cardinality, is_valid_matching, verify_maximum
from repro.sparse import COO, CSC

from ..matching.conftest import scipy_optimum
from ..helpers import coo_from_edges, long_path


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


@pytest.mark.parametrize("augment", ["level", "path", "auto"])
def test_mcm_dist_augment_variants(augment, force_augment):
    coo = random_coo(35, 35, 200, 77)
    a = CSC.from_coo(coo)
    force_augment(None if augment == "auto" else augment)
    mate_r, mate_c, stats = run_mcm_dist(coo, 2, 2)
    assert cardinality(mate_r) == scipy_optimum(a)
    if augment == "level":
        assert stats.augment_path_calls == 0
    if augment == "path":
        assert stats.augment_level_calls == 0


def test_mcm_dist_no_init():
    coo = random_coo(30, 30, 150, 5)
    a = CSC.from_coo(coo)
    mate_r, mate_c, stats = run_mcm_dist(coo, 2, 2, init="none")
    assert stats.initial_cardinality == 0
    assert cardinality(mate_r) == scipy_optimum(a)


def test_mcm_dist_matches_serial_matching_exactly(force_augment):
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
    force_augment("level")
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
    coo = random_coo(10, 10, 30, 0)
    with pytest.raises(ValueError):
        run_mcm_dist(coo, 1, 1, init="mindegree-not-implemented")


@pytest.mark.parametrize("pr,pc", [(1, 1), (2, 2), (2, 3)])
def test_mcm_dist_mindegree_init(pr, pc):
    """The distributed dynamic-mindegree initializer must produce a valid
    partial matching and let the MCM phase finish at the optimum."""
    coo = random_coo(45, 40, 240, pr * 31 + pc)
    a = CSC.from_coo(coo)
    mate_r, mate_c, stats = run_mcm_dist(coo, pr, pc, init="mindegree")
    assert is_valid_matching(a, mate_r, mate_c)
    assert cardinality(mate_r) == scipy_optimum(a)
    assert stats.initial_cardinality > 0
    assert stats.final_cardinality >= stats.initial_cardinality


def test_mcm_dist_mindegree_quality_close_to_serial():
    """The distributed mindegree initializer should land within a few
    percent of the serial round-synchronous mindegree cardinality."""
    from repro.matching import mindegree_rounds

    coo = random_coo(120, 120, 700, 99)
    a = CSC.from_coo(coo)
    serial = mindegree_rounds(a).cardinality
    _, _, stats = run_mcm_dist(coo, 2, 2, init="mindegree")
    assert stats.initial_cardinality >= int(0.9 * serial)


@pytest.mark.parametrize("pr,pc", [(1, 1), (2, 2), (2, 3)])
def test_mcm_dist_karp_sipser_init(pr, pc):
    coo = random_coo(45, 45, 220, pr * 17 + pc)
    a = CSC.from_coo(coo)
    mate_r, mate_c, stats = run_mcm_dist(coo, pr, pc, init="karp-sipser")
    assert is_valid_matching(a, mate_r, mate_c)
    assert cardinality(mate_r) == scipy_optimum(a)
    assert stats.initial_cardinality > 0


def test_mcm_dist_karp_sipser_exact_on_chain():
    """Degree-1 cascades: Karp-Sipser alone is optimal on a path graph."""
    coo = long_path(24)
    a = CSC.from_coo(coo)
    mate_r, mate_c, stats = run_mcm_dist(coo, 2, 2, init="karp-sipser")
    assert cardinality(mate_r) == scipy_optimum(a)
    # the initializer already reached the optimum on a path
    assert stats.initial_cardinality == stats.final_cardinality


@pytest.mark.parametrize("init", ["greedy", "mindegree", "karp-sipser"])
def test_mcm_dist_all_inits_agree(init):
    coo = random_coo(50, 55, 280, 123)
    a = CSC.from_coo(coo)
    mate_r, _, _ = run_mcm_dist(coo, 2, 2, init=init)
    assert cardinality(mate_r) == scipy_optimum(a)
