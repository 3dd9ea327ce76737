"""Algorithm 2 (matrix-algebraic MS-BFS MCM): semantics, knobs, hooks."""

import numpy as np
import pytest

from repro.sparse import (
    COO, CSC,
    SR_MAX_PARENT, SR_MIN_PARENT, SR_RAND_PARENT, SR_RAND_ROOT,
)
from repro.sparse.spvec import NULL
from repro.matching import MsBfsHooks, maximum_matching, ms_bfs_mcm, run_phase
from repro.matching.validate import cardinality, is_valid_matching, verify_maximum

from .conftest import random_bipartite, scipy_optimum
from ..helpers import coo_from_edges


def test_fig2_example_reaches_maximum(fig2):
    mr, mc, stats = ms_bfs_mcm(fig2)
    assert cardinality(mr) == scipy_optimum(fig2)
    assert verify_maximum(fig2, mr, mc)
    assert stats.final_cardinality == cardinality(mr)
    assert stats.phases >= 1
    assert stats.paths_per_phase[-1] == 0  # termination phase found nothing


def test_single_phase_discovers_disjoint_paths(fig2):
    """Run one phase by hand from the empty matching and inspect path_c."""
    mate_r = np.full(5, NULL, np.int64)
    mate_c = np.full(5, NULL, np.int64)
    pi_r = np.full(5, NULL, np.int64)
    path_c = run_phase(fig2, mate_r, mate_c, pi_r)
    roots = np.flatnonzero(path_c != NULL)
    ends = path_c[roots]
    # from the empty matching, every path is a single edge (root col, end row)
    assert roots.size > 0
    assert np.unique(ends).size == ends.size  # vertex-disjoint ends
    edges = set(zip(fig2.to_coo().rows.tolist(), fig2.to_coo().cols.tolist()))
    for c, r in zip(roots.tolist(), ends.tolist()):
        assert (r, c) in edges
        assert pi_r[r] == c  # parent of the end row is the path's column


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("init", [None, "greedy", "karp-sipser", "mindegree"])
def test_matches_oracle_with_every_initializer(seed, init):
    rng = np.random.default_rng(seed)
    n1, n2 = int(rng.integers(1, 80)), int(rng.integers(1, 80))
    a = random_bipartite(n1, n2, int(rng.integers(0, 4 * max(n1, n2))), seed + 200)
    mr, mc, stats = maximum_matching(a, init=init, seed=seed)
    assert is_valid_matching(a, mr, mc)
    assert cardinality(mr) == scipy_optimum(a)
    if init is not None:
        assert stats.initial_cardinality >= 0
        assert stats.final_cardinality >= stats.initial_cardinality


@pytest.mark.parametrize("semiring", [SR_MIN_PARENT, SR_MAX_PARENT, SR_RAND_PARENT, SR_RAND_ROOT])
@pytest.mark.parametrize("prune", [True, False])
def test_semirings_and_pruning_reach_same_cardinality(semiring, prune):
    a = random_bipartite(60, 60, 260, 17)
    opt = scipy_optimum(a)
    mr, mc, _ = ms_bfs_mcm(
        a, semiring=semiring, prune=prune, rng=np.random.default_rng(5)
    )
    assert cardinality(mr) == opt
    assert verify_maximum(a, mr, mc)


def test_pruning_reduces_or_equals_edge_traversals():
    """Pruning avoids expanding trees that already found a path — traversed
    edge counts must not increase."""
    a = random_bipartite(150, 150, 700, 23)
    _, _, with_prune = ms_bfs_mcm(a, prune=True)
    _, _, without = ms_bfs_mcm(a, prune=False)
    assert with_prune.final_cardinality == without.final_cardinality
    assert with_prune.edges_traversed <= without.edges_traversed


def test_deterministic_with_min_parent():
    a = random_bipartite(50, 50, 220, 31)
    r1 = ms_bfs_mcm(a, semiring=SR_MIN_PARENT)
    r2 = ms_bfs_mcm(a, semiring=SR_MIN_PARENT)
    assert np.array_equal(r1[0], r2[0])
    assert np.array_equal(r1[1], r2[1])


def test_stats_accounting():
    a = random_bipartite(60, 60, 300, 3)
    mr, mc, stats = ms_bfs_mcm(a)
    assert stats.phases == len(stats.paths_per_phase)
    assert stats.total_paths == stats.final_cardinality  # empty init: every match from a path
    assert stats.iterations >= stats.phases - 1
    assert stats.edges_traversed > 0
    assert stats.augment.total_paths == stats.total_paths


def test_hooks_see_all_steps(fig2):
    seen = {"phase_start": 0, "spmv": 0, "select": 0, "invert": 0,
            "prune": 0, "next": 0, "iter": 0, "phase_end": 0}

    class H(MsBfsHooks):
        def on_phase_start(self, fc_nnz):
            seen["phase_start"] += 1
            assert fc_nnz >= 0

        def on_spmv(self, fc, cand_rows, cand_cols, fr):
            seen["spmv"] += 1
            assert cand_rows.size == cand_cols.size
            assert fr.nnz <= cand_rows.size or cand_rows.size == 0

        def on_select_set(self, fr, ufr):
            seen["select"] += 1

        def on_invert_paths(self, ufr):
            seen["invert"] += 1
            assert ufr.nnz > 0

        def on_prune(self, fr, new_roots, kept):
            seen["prune"] += 1
            assert kept <= fr.nnz

        def on_next_frontier(self, fr, cols):
            seen["next"] += 1

        def on_iteration_end(self, it):
            seen["iter"] += 1

        def on_phase_end(self, paths, iters):
            seen["phase_end"] += 1

    ms_bfs_mcm(fig2, hooks=H())
    assert seen["phase_start"] == seen["phase_end"] >= 2
    assert seen["spmv"] == seen["iter"] >= 1
    assert seen["invert"] >= 1  # at least one augmenting path found


def test_empty_and_edgeless_graphs():
    a = CSC.from_coo(COO.empty(4, 4))
    mr, mc, stats = ms_bfs_mcm(a)
    assert cardinality(mr) == 0
    assert stats.phases == 1


def test_rectangular_matrices():
    for n1, n2 in [(3, 90), (90, 3), (1, 1)]:
        a = random_bipartite(n1, n2, 60, n1 + n2)
        mr, mc, _ = ms_bfs_mcm(a)
        assert cardinality(mr) == scipy_optimum(a)


def test_initial_matching_is_not_mutated():
    a = random_bipartite(30, 30, 150, 9)
    from repro.matching import greedy_maximal

    init_r, init_c = greedy_maximal(a)
    snap_r, snap_c = init_r.copy(), init_c.copy()
    ms_bfs_mcm(a, init_r, init_c)
    assert np.array_equal(init_r, snap_r)
    assert np.array_equal(init_c, snap_c)


def test_api_rejects_unknown_init_and_type():
    a = random_bipartite(5, 5, 10, 0)
    with pytest.raises(ValueError, match="unknown maximal matching"):
        maximum_matching(a, init="bogus")
    with pytest.raises(TypeError):
        maximum_matching([[0, 1], [1, 0]])


def test_api_accepts_coo_directly():
    coo = coo_from_edges(3, 3, [(0, 0), (1, 1), (2, 2)])
    mr, mc, _ = maximum_matching(coo)
    assert cardinality(mr) == 3
