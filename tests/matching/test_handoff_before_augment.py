"""MCM-DIST asks its hand-off rule once per phase, after the BFS and before
augmenting, and the serial tail applies the phase's paths itself.

The rule (:func:`~repro.matching.job.tail_is_cheaper`) now weighs what a
hand-off skips at once, ``saved``: it fires iff the phase's steps S price at
least one read of every edge and price(S) + saved beats the gather plus
that read, so it never loses to m more distributed phases, and with
``saved = 0`` it is the rule it replaced.  The augmentation it prices
(:func:`~repro.matching.mcm_dist.augment_cost`) is read off replicated
numbers before it runs, and must equal what the ledger then records.  The
end-to-end deep core hands off after phase 1's BFS; and, the tail included,
a restarted job — or one given a store — reports the fault-free job's
counters and hands off where it does; the restart test runs MWM-DIST too.
"""

import threading
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graphs import suite
from repro.graphs.rmat import er
from repro.matching import mcm_dist
from repro.matching.job import ledger_totals, tail_is_cheaper
from repro.matching.mcm_dist import mcm_dist_spmd, run_mcm_dist
from repro.matching.mwm_dist import run_mwm_dist
from repro.perfmodel import EDISON
from repro.runtime import CheckpointStore, FileCheckpointStore, spmd
from repro.sparse.coo import COO

from ..helpers import job_counters
from .test_mcm_iteration_shape import RELABELED_ROAD, e2e_workloads  # noqa: F401
from .test_mwm_tail import HEAVY, LADDER

# -- the rule --------------------------------------------------------------------


@settings(max_examples=400, deadline=None)
@given(steps=st.integers(0, 10_000), p=st.integers(1, 2_025), words=st.integers(0, 10**9),
       nnz=st.integers(0, 10**8), saved=st.floats(0.0, 1.0))
def test_a_firing_rule_never_loses_to_more_distributed_phases(steps, p, words, nnz, saved):
    cost = EDISON.price(1, (p - 1).bit_length(), words * (p - 1) / p, nnz)
    spent = EDISON.price(1, steps).total
    if tail_is_cheaper(steps, p, words, nnz, saved):
        # going on costs saved + m·price(S); the tail at most the gather and
        # m reads of every edge — compared exactly, on the priced terms
        for m in range(1, 65):
            assert (Fraction(saved) + m * Fraction(spent)
                    > Fraction(cost.total) + (m - 1) * Fraction(cost.gamma_s)), m
    # with nothing saved it decides as the rule it replaced, and saving
    # something never makes it fire later
    before = spent > cost.total
    assert tail_is_cheaper(steps, p, words, nnz) == before
    assert tail_is_cheaper(steps, p, words, nnz, saved) or not before


# -- the augmentation's price is its ledger ----------------------------------------

ROAD = suite.load_scaled("road_usa", target_nnz=800, seed=1)[0]
_log = threading.local()


def _recording_rank_main(comm, coo, pr, pc):
    """One rank of MCM-DIST that returns its recorded events."""
    _log.events = []
    mcm_dist_spmd(comm, coo if comm.rank == 0 else None, pr, pc)
    return _log.events


def _record(monkeypatch):
    """Wrap the augmentation's pricing and the augmentation itself: each
    rank logs ("cost", steps) as the engine prices a phase's augmentation,
    then ("run", steps) for the augmentation, measured on its own ledger."""
    boundary, cost, augment = (mcm_dist.phase_boundary, mcm_dist.augment_cost,
                               mcm_dist.augment_level_spmd)

    def note(grid, stats, phase_no, **kwargs):
        _log.grid = grid
        boundary(grid, stats, phase_no, **kwargs)

    def priced(*args):
        out = cost(*args)
        _log.events.append(("cost", out))
        return out

    def measured(*args):
        steps = ledger_totals(_log.grid)[0]
        augment(*args)
        _log.events.append(("run", ledger_totals(_log.grid)[0] - steps))

    monkeypatch.setattr(mcm_dist, "augment_cost", priced)
    monkeypatch.setattr(mcm_dist, "phase_boundary", note)
    monkeypatch.setattr(mcm_dist, "augment_level_spmd", measured)


@pytest.mark.parametrize("backend", ["thread", "process"])
@pytest.mark.parametrize("pr,pc", [(1, 2), (2, 2), (2, 3), (3, 3)])
def test_priced_augmentation_equals_its_ledger(monkeypatch, no_handoff, pr, pc, backend):
    _record(monkeypatch)
    res = spmd(pr * pc, _recording_rank_main, ROAD, pr, pc, backend=backend, timeout=60)
    # per rank, each phase's (priced, run) steps: every price is followed
    # by the augmentation it priced
    phases = [[(want, got) for (_, want), (_, got) in zip(events[::2], events[1::2])]
              for events in res.values]
    for events in res.values:
        assert [kind for kind, _ in events] == ["cost", "run"] * (len(events) // 2)
    assert len({len(rank) for rank in phases}) == 1 and len(phases[0]) >= 2
    for n, per_rank in enumerate(zip(*phases)):
        # the steps on every rank's ledger
        assert set(per_rank) == {(per_rank[0][0],) * 2}, n


# -- the end-to-end deep core --------------------------------------------------------


def test_the_deep_core_hands_off_after_phase_one_bfs(e2e_workloads):  # noqa: F811
    inst = e2e_workloads.build("mcm_deep_t4", seed=1)
    mate_r, mate_c, stats = run_mcm_dist(inst.coo, 2, 2, backend="thread", timeout=60)
    assert e2e_workloads.digest(mate_r, mate_c) == RELABELED_ROAD[0]
    assert (stats.phases, stats.iterations) == RELABELED_ROAD[1][:2]
    # phase 1's BFS ran on the grid, its paths in the tail (the level call)
    assert (stats.tail_phases, stats.augment_level_calls) == (4, 1)
    steps, words = stats.ledger()
    # 36 latency steps per rank: no collective follows the tail's gather
    # (38 while a closing allgather carried the counters, 120 when the rule
    # waited for phase 1's augmentation, then paid phase 2 too)
    assert steps == 4 * 36
    assert EDISON.price(4, steps, words, stats.edges_examined).total <= 0.00035


# -- a restart reports the fault-free counters ------------------------------------------


@pytest.mark.parametrize("engine", ["mcm", "mwm"])
@pytest.mark.parametrize("backend", ["thread", "process"])
@pytest.mark.parametrize("seam", ["no_handoff", "rule"])
def test_a_restart_reports_the_fault_free_counters(request, seam, backend, engine):
    """A crashed and restarted job reports every counter the fault-free job
    does (``job_counters``: every numeric ``DistStats`` field but the
    recovery ones and the wire ledger), on both engines.  Under
    ``no_handoff`` rank 1 dies entering phase 3 and the job resumes from
    phase 2's snapshot (MCM-DIST: 10 iterations, 424 edges, 0 initializer
    reads, initial cardinality 322 and 40 top-down block-iterations when
    the counters did not ride the snapshot; MWM-DIST: 1,549 edges examined
    when the reads did not).  Under the rule it dies entering the serial
    tail's second phase, and a tail phase the attempt completed runs
    again: MCM-DIST resumes from its hand-off's snapshot, straight into the
    tail; MWM-DIST, which writes none at its mid-phase hand-off, from its
    last ε-phase's (``LADDER`` on 1x2: phase 1's) and hands off again."""
    if seam == "no_handoff":
        request.getfixturevalue("no_handoff")
    if engine == "mcm":
        def solve(**kwargs):
            return run_mcm_dist(ROAD, 2, 2, backend=backend, timeout=60, **kwargs)
    else:
        (coo, weights), (pr, pc) = (HEAVY, (2, 2)) if seam == "no_handoff" else (LADDER, (1, 2))

        def solve(**kwargs):
            return run_mwm_dist(coo, weights, pr, pc, epsilon=0.05, backend=backend, timeout=60,
                                **kwargs)
    ok_r, _, ok = solve()
    crash = 3 if seam == "no_handoff" else ok.phases - ok.tail_phases + 2
    mate_r, _, stats = solve(max_restarts=2, faults=f"crash:rank=1,at=phase:{crash}")
    assert (stats.restarts, stats.restart_spans) == (1, ((0, crash),))
    np.testing.assert_array_equal(mate_r, ok_r)
    assert job_counters(stats) == job_counters(ok)
    if seam == "rule":
        assert ok.tail_phases >= 2 and stats.phases_replayed > 0
    elif engine == "mcm":
        assert (ok.iterations, ok.edges_examined, ok.init_edges, ok.initial_cardinality,
                ok.topdown_steps) == (38, 1_903, 1_803, 289, 152)
    else:
        assert (ok.auction_rounds, ok.bids_placed, ok.price_updates) == (93, 611, 479)
        assert ok.edges_examined == 3_953


@pytest.mark.parametrize("backend", ["thread", "process"])
def test_a_restart_or_a_store_before_the_handoff_keeps_it(backend, tmp_path):
    """er(8) from the empty matching on 2x2 hands off after phase 2's BFS.
    Rank 1 dies entering phase 2 and the job resumes from phase 1's
    snapshot on a fresh ledger; a job given a store pays for snapshots the
    rule must not count.  Both hand off where the plain run does, with its
    counters."""
    coo = er(8, seed=1)

    def solve(**kwargs):
        return run_mcm_dist(coo, 2, 2, init="none", backend=backend, timeout=60, **kwargs)

    def store(name):
        return (CheckpointStore() if backend == "thread"
                else FileCheckpointStore(str(tmp_path / name)))

    ok_r, _, ok = solve()
    assert (ok.phases, ok.tail_phases) == (14, 12)
    restarted = solve(max_restarts=2, checkpoint_store=store("restart"),
                      faults="crash:rank=1,at=phase:2")
    stored = solve(checkpoint_store=store("plain"))
    assert (restarted[2].restarts, restarted[2].restart_spans) == (1, ((0, 2),))
    assert stored[2].checkpoint_words > 0
    for mate_r, _, stats in (restarted, stored):
        np.testing.assert_array_equal(mate_r, ok_r)
        assert job_counters(stats) == job_counters(ok)

def _column_perfect(n, seed):
    """An n × n graph with a planted perfect matching under 3n/4 random
    edges: every column ends up matched."""
    rng = np.random.default_rng(seed)
    rows = np.concatenate([rng.permutation(n), rng.integers(0, n, 3 * n // 4)])
    return COO(n, n, rows, np.concatenate([np.arange(n), rng.integers(0, n, 3 * n // 4)]))


@pytest.mark.parametrize("backend", ["thread", "process"])
def test_a_restart_counts_the_free_columns_of_its_snapshot(force_handoff, backend):
    """Phase 2 matches the last free column, so the hand-off forced there
    must not fire: nothing is left for a tail.  A job restarted from
    phase 1's snapshot counts its free columns off that snapshot's
    matching, not off the initial cardinality the snapshot restores — which
    would leave phase 2's paths' columns free and hand them to a tail."""
    coo = _column_perfect(60, seed=0)
    force_handoff(2)
    ok_r, _, ok = run_mcm_dist(coo, 2, 2, backend=backend, timeout=60)
    assert (ok.phases, ok.tail_phases, ok.final_cardinality) == (3, 0, 60)
    mate_r, _, stats = run_mcm_dist(coo, 2, 2, backend=backend, timeout=60, max_restarts=2,
                                    faults="crash:rank=1,at=phase:2")
    assert stats.restarts == 1
    np.testing.assert_array_equal(mate_r, ok_r)
    assert job_counters(stats) == job_counters(ok)
