"""Cross-backend parity: the process transport must be observationally
identical to the thread transport.

Bit-identical mate vectors and identical merged ``by_alg`` collective
ledgers across the full grid — process grids x inputs.  (Which physical
plan a communicator runs follows its size, so the 2x2 grids cover the
walked row/column schedules and the 3x3 grids the hub waves on both
wires; ``test_aggregation.py`` compares the two plans at equal size on
both backends.)  Any divergence means the shared-memory wire (codec,
rings, matching) changed message content or ordering semantics.
"""

import numpy as np
import pytest

from repro.graphs.generators import edge_weights
from repro.graphs.rmat import er, g500
from repro.matching.mcm_dist import run_mcm_dist
from repro.matching.mwm_dist import run_mwm_dist

from ..conftest import walk_everywhere

GRIDS = [(1, 1), (2, 2), (3, 3)]
INPUTS = {
    "er6": lambda: er(6, seed=1),
    "rmat6": lambda: g500(6, seed=2),
}


def _run(coo, pr, pc, backend):
    return run_mcm_dist(coo, pr, pc, backend=backend, timeout=60)


def _assert_parity(coo, pr, pc):
    mr_t, mc_t, st_t = _run(coo, pr, pc, "thread")
    mr_p, mc_p, st_p = _run(coo, pr, pc, "process")
    np.testing.assert_array_equal(mr_t, mr_p)
    np.testing.assert_array_equal(mc_t, mc_p)
    assert st_t.comm_by_alg == st_p.comm_by_alg


@pytest.mark.parametrize("graph", sorted(INPUTS))
@pytest.mark.parametrize("pr,pc", GRIDS)
def test_grid_parity(graph, pr, pc):
    _assert_parity(INPUTS[graph](), pr, pc)


# One engine now; the single-valued ``config`` parameter keeps the surviving
# leg's test ids.  It runs the grid GRIDS lacks: on 2x3 both physical plans
# work side by side (2-rank columns walk, 3-rank rows and the grid hub).
@pytest.mark.parametrize("graph", sorted(INPUTS))
@pytest.mark.parametrize("config", ["engine"])
def test_config_parity(graph, config):
    _assert_parity(INPUTS[graph](), 2, 3)


def test_larger_grid_volume_parity():
    """A heavier instance exercising chunked frames and every collective."""
    coo = er(8, seed=1)
    _assert_parity(coo, 3, 3)


# -- MWM-DIST: the auction engine over the same transports -------------------


def _mwm_input(name):
    coo = INPUTS[name]()
    return coo, edge_weights(coo, dist="skewed", seed=3)


def _run_mwm(coo, weights, pr, pc, backend):
    return run_mwm_dist(coo, weights, pr, pc, backend=backend, timeout=120)


def _assert_mwm_parity(coo, weights, pr, pc):
    mr_t, mc_t, st_t = _run_mwm(coo, weights, pr, pc, "thread")
    mr_p, mc_p, st_p = _run_mwm(coo, weights, pr, pc, "process")
    np.testing.assert_array_equal(mr_t, mr_p)
    np.testing.assert_array_equal(mc_t, mc_p)
    assert st_t.matching_weight == st_p.matching_weight
    assert st_t.auction_rounds == st_p.auction_rounds
    assert (st_t.certified_ratio, st_t.dual_bound) == (st_p.certified_ratio, st_p.dual_bound)
    assert st_t.comm_by_alg == st_p.comm_by_alg


@pytest.mark.parametrize("graph", sorted(INPUTS))
@pytest.mark.parametrize("pr,pc", GRIDS)
def test_mwm_grid_parity(graph, pr, pc):
    coo, weights = _mwm_input(graph)
    _assert_mwm_parity(coo, weights, pr, pc)


@pytest.mark.parametrize("config", ["engine"])
def test_mwm_config_parity(config):
    coo, weights = _mwm_input("er6")
    _assert_mwm_parity(coo, weights, 2, 3)


def test_mwm_aggregation_bit_equal():
    """The hub waves change only the physical frame schedule: against
    every schedule walked for real at the same 3x3 size, the auction's
    mates, weight, rounds and logical ledgers must not move."""
    coo, weights = _mwm_input("rmat6")
    hub = run_mwm_dist(coo, weights, 3, 3, timeout=120)
    with walk_everywhere():
        walk = run_mwm_dist(coo, weights, 3, 3, timeout=120)
    np.testing.assert_array_equal(hub[0], walk[0])
    np.testing.assert_array_equal(hub[1], walk[1])
    assert hub[2].matching_weight == walk[2].matching_weight
    assert hub[2].auction_rounds == walk[2].auction_rounds
    assert hub[2].certified_ratio == walk[2].certified_ratio
    assert hub[2].comm_by_alg == walk[2].comm_by_alg
    assert hub[2].comm_messages == walk[2].comm_messages == walk[2].frames
    assert hub[2].frames < walk[2].frames


def test_mwm_chaos_recovery_matches_fault_free(tmp_path):
    """Crashes at every ε-phase boundary: the recovered auction must land on
    the exact fault-free mates and weight (prices ride the checkpoint's aux
    slot, so replayed phases restart from the durable duals)."""
    from repro.runtime.checkpoint import FileCheckpointStore
    from repro.runtime.faults import FaultPlan

    coo, weights = _mwm_input("er6")
    mr_ok, mc_ok, st_ok = run_mwm_dist(coo, weights, 2, 2, timeout=120)
    mr, mc, st = run_mwm_dist(
        coo, weights, 2, 2,
        faults=FaultPlan.parse("crash:rank=any,at=phase:every", seed=5),
        checkpoint_store=FileCheckpointStore(tmp_path / "ckpt"),
        max_restarts=30,
        timeout=120,
    )
    assert st.restarts >= 1
    np.testing.assert_array_equal(mr_ok, mr)
    np.testing.assert_array_equal(mc_ok, mc)
    assert st.matching_weight == st_ok.matching_weight
    assert st.certified_ratio == st_ok.certified_ratio
