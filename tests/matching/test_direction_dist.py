"""Direction-optimized distributed MS-BFS: top-down, auto and an all-pull
run of MCM-DIST ("bottomup", the ``force_pull`` seam under "auto") must
produce bit-identical mate vectors to each other and to the serial oracle
under minParent, on every grid shape."""

import numpy as np
import pytest

from repro.matching import ms_bfs_mcm
from repro.matching.mcm_dist import relabeled, run_mcm_dist
from repro.matching.validate import cardinality
from repro.sparse import COO, CSC, SR_MIN_PARENT
from repro.sparse.permute import unpermute_matching

from .conftest import scipy_optimum

# MCM-DIST reduces under minParent only; the single-valued ``semiring``
# parameter keeps the surviving leg's test ids.
SEMIRINGS = [SR_MIN_PARENT]


def random_coo(n1, n2, m, seed):
    rng = np.random.default_rng(seed)
    return COO(n1, n2, rng.integers(0, n1, m), rng.integers(0, n2, m))


@pytest.mark.parametrize("pr,pc", [(2, 2), (3, 3)])
@pytest.mark.parametrize("semiring", SEMIRINGS, ids=lambda s: s.name)
def test_all_directions_match_serial_exactly(pr, pc, semiring, force_augment, force_pull):
    """The acceptance criterion: topdown, bottomup and auto runs on the grid
    all equal the serial oracle's mate vectors, entry for entry."""
    coo = random_coo(30, 32, 180, 7 * pr + pc)
    # the serial oracle solves the labels the distributed engine does
    rel, rp, cp = relabeled(coo)
    s_r, s_c, _ = ms_bfs_mcm(CSC.from_coo(rel), semiring=semiring, augment_mode="level")
    s_r, s_c = unpermute_matching(s_r, s_c, rp, cp)
    force_augment("level")
    for direction in ("topdown", "bottomup", "auto"):
        d_r, d_c, _ = run_mcm_dist(coo, pr, pc, init="none", direction=force_pull(direction))
        assert np.array_equal(s_r, d_r), direction
        assert np.array_equal(s_c, d_c), direction


@pytest.mark.parametrize("pr,pc", [(1, 1), (1, 2), (2, 3)])
def test_directions_agree_on_more_grids(pr, pc, force_augment, force_pull):
    coo = random_coo(36, 30, 200, 13 * pr + pc)
    force_augment("level")
    baseline = run_mcm_dist(coo, pr, pc, init="none", direction="topdown")
    for direction in ("bottomup", "auto"):
        got = run_mcm_dist(coo, pr, pc, init="none", direction=force_pull(direction))
        assert np.array_equal(baseline[0], got[0])
        assert np.array_equal(baseline[1], got[1])


def test_direction_with_initializer_still_optimal(force_pull):
    """Direction choice composes with a distributed initializer."""
    coo = random_coo(40, 45, 260, 99)
    a = CSC.from_coo(coo)
    for direction in ("bottomup", "auto"):
        mate_r, _, stats = run_mcm_dist(coo, 2, 2, init="greedy",
                                        direction=force_pull(direction))
        assert cardinality(mate_r) == scipy_optimum(a)
        assert stats.final_cardinality == cardinality(mate_r)


def test_direction_step_tallies(force_pull, no_handoff):
    """The tallies count block-iterations, summed over the ranks: every
    block takes one direction per iteration.  Under the ``force_pull``
    seam every block-iteration pulls, forked ranks included."""
    coo = random_coo(40, 40, 600, 3)  # dense enough that auto pulls somewhere
    p = 4
    _, _, td = run_mcm_dist(coo, 2, 2, init="none", direction="topdown")
    assert td.bottomup_steps == 0
    assert td.topdown_steps == td.iterations * p
    for backend in ("thread", "process"):
        _, _, bu = run_mcm_dist(coo, 2, 2, init="none", backend=backend,
                                direction=force_pull("bottomup"), timeout=60)
        assert bu.iterations > 0
        assert bu.topdown_steps == 0, backend
        assert bu.bottomup_steps == bu.iterations * p, backend
    _, _, au = run_mcm_dist(coo, 2, 2, init="none", direction=force_pull("auto"))
    assert au.topdown_steps + au.bottomup_steps == au.iterations * p
    assert au.bottomup_steps > 0  # some block actually pulled on this input
    # a block pulls only where that is expected to read fewer of its edges
    assert au.edges_examined <= td.edges_examined
    assert au.ledger()[1] <= td.ledger()[1]
    for stats in (td, bu, au):
        assert stats.edges_examined > 0
        assert stats.ledger()[1] >= stats.expand_words + stats.fold_words > 0


def test_unknown_direction_rejected():
    coo = random_coo(10, 10, 30, 0)
    with pytest.raises(ValueError):
        run_mcm_dist(coo, 1, 1, direction="sideways")
    # an all-pull run is a test seam (``force_pull``), not a direction
    with pytest.raises(ValueError, match="auto/topdown"):
        run_mcm_dist(coo, 1, 1, direction="bottomup")
