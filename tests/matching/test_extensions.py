"""Extension features: direction-optimized BFS (the paper's future work)."""

import numpy as np
import pytest

from repro.matching import maximum_matching, ms_bfs_mcm
from repro.matching.msbfs import MsBfsHooks
from repro.matching.validate import cardinality, is_valid_matching, verify_maximum

from .conftest import random_bipartite, scipy_optimum


# -- direction-optimizing BFS ---------------------------------------------------

@pytest.mark.parametrize("direction", ["topdown", "bottomup", "auto"])
@pytest.mark.parametrize("seed", range(5))
def test_all_directions_reach_optimum(direction, seed):
    rng = np.random.default_rng(seed)
    n1, n2 = int(rng.integers(1, 70)), int(rng.integers(1, 70))
    a = random_bipartite(n1, n2, int(rng.integers(0, 5 * max(n1, n2))), seed + 400)
    mr, mc, _ = ms_bfs_mcm(a, direction=direction)
    assert is_valid_matching(a, mr, mc)
    assert cardinality(mr) == scipy_optimum(a)
    assert verify_maximum(a, mr, mc)


def test_directions_produce_identical_matchings():
    """With the deterministic minParent semiring, bottom-up and top-down
    reduce the SAME candidate edge set — the mate vectors must be equal."""
    a = random_bipartite(60, 60, 300, 42)
    td = ms_bfs_mcm(a, direction="topdown")
    bu = ms_bfs_mcm(a, direction="bottomup")
    au = ms_bfs_mcm(a, direction="auto")
    assert np.array_equal(td[0], bu[0]) and np.array_equal(td[1], bu[1])
    assert np.array_equal(td[0], au[0]) and np.array_equal(td[1], au[1])


def test_auto_direction_switches_when_frontier_is_heavy():
    """On a dense-ish graph the initial frontier (all unmatched columns)
    touches more edges than the unvisited rows do once most rows are
    visited — auto must use both kernels at least once."""
    used = {"top": 0, "bottom": 0}

    class H(MsBfsHooks):
        def on_spmv(self, *a):
            used["top"] += 1

        def on_spmv_bottomup(self, *a):
            used["bottom"] += 1

    a = random_bipartite(80, 80, 1600, 7)
    ms_bfs_mcm(a, direction="auto", hooks=H(), mate_r=None, mate_c=None)
    assert used["top"] + used["bottom"] > 0
    assert used["bottom"] > 0, "dense graph from empty matching should trigger bottom-up"


def test_bottom_up_edge_counts_and_equal_result():
    """Bottom-up prefilters unvisited rows, so its traversed-edge counter is
    bounded by the unvisited-row adjacency; results stay identical."""
    a = random_bipartite(50, 50, 800, 3)
    _, _, st_td = ms_bfs_mcm(a, direction="topdown")
    _, _, st_bu = ms_bfs_mcm(a, direction="bottomup")
    assert st_bu.final_cardinality == st_td.final_cardinality
    assert st_bu.edges_traversed > 0 and st_td.edges_traversed > 0


def test_direction_validation():
    a = random_bipartite(5, 5, 10, 0)
    with pytest.raises(ValueError, match="direction"):
        ms_bfs_mcm(a, direction="sideways")


def test_api_exposes_direction():
    a = random_bipartite(30, 30, 120, 1)
    mr, mc, _ = maximum_matching(a, direction="auto")
    assert cardinality(mr) == scipy_optimum(a)
