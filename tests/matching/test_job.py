"""The job shell (``repro.matching.job``): one driver under both engines.

A store exists iff the caller passes one or allows restarts — so the
default run carries no checkpoint traffic, and allowing restarts without
faults costs exactly the snapshots.  The ledgers below were recorded from
``run_mcm_dist`` and ``run_mcm_dist_resilient`` at the commit before the
two were folded together (PR 20).
"""

import pytest

from repro.graphs.rmat import er
from repro.matching.mcm_dist import run_mcm_dist
from repro.runtime import CheckpointStore, FaultInjector, FaultPlan, RankKilledError


def _ledger(stats):
    return (stats.comm_messages, stats.frames, stats.frame_words, stats.total_words)


def test_plain_run_carries_no_checkpoint_traffic():
    stats = run_mcm_dist(er(8, seed=3), 2, 2, init="greedy")[2]
    assert stats.checkpoint_words == 0
    assert _ledger(stats) == (457, 417, 28_125, 26_163)
    assert stats.comm_by_alg["barrier:dissemination"]["calls"] == 36
    assert stats.model_phase_ledger is None and stats.restart_spans == ()


def test_allowing_restarts_costs_exactly_the_snapshots():
    stats = run_mcm_dist(er(8, seed=3), 2, 2, init="greedy", max_restarts=3)[2]
    assert stats.restarts == 0
    assert stats.checkpoint_words == 2_056
    assert _ledger(stats) == (553, 489, 35_985, 32_531)
    # one closing barrier per snapshot and per rank on top of the plain run's
    assert stats.comm_by_alg["barrier:dissemination"]["calls"] == 52


def test_a_store_alone_snapshots_without_restarting():
    coo, store = er(8, seed=3), CheckpointStore()
    stats = run_mcm_dist(coo, 2, 2, init="greedy", checkpoint_store=store)[2]
    assert stats.checkpoint_words == store.words_written == 2_056
    with pytest.raises(RankKilledError):
        run_mcm_dist(coo, 2, 2, checkpoint_store=CheckpointStore(),
                     faults="crash:rank=1,at=phase:1")


def test_model_time_is_reported_whenever_an_injector_ran():
    stats = run_mcm_dist(er(6, seed=2), 2, 2, faults=FaultPlan.parse("", seed=1))[2]
    assert stats.model_seconds > 0.0
    assert sorted(stats.model_phase_ledger) == list(range(1, stats.phases + 1))


def test_ready_made_injector_runs_one_attempt_only():
    coo = er(6, seed=2)
    injector = FaultInjector(FaultPlan.parse("delay:p=0.2", seed=1), 4)
    assert run_mcm_dist(coo, 2, 2, faults=injector)[2].model_seconds > 0.0
    with pytest.raises(ValueError, match="one attempt"):
        run_mcm_dist(coo, 2, 2, faults=injector, max_restarts=1)
