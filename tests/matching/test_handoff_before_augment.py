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
a restarted job reports the fault-free job's counters.
"""

import threading
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graphs import suite
from repro.matching import mcm_dist
from repro.matching.job import ledger_totals, tail_is_cheaper
from repro.matching.mcm_dist import mcm_dist_spmd, run_mcm_dist
from repro.perfmodel import EDISON
from repro.runtime import spmd
from repro.sparse.coo import COO

from .test_mcm_iteration_shape import RELABELED_ROAD, e2e_workloads  # noqa: F401

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
    """Wrap the augmentation's pricing and every piece of it that runs:
    each rank logs ("cost", steps, ops) as the engine prices a phase's
    augmentation, then ("run", steps, ops) for the window's opening and
    the augmentation itself, measured on its own ledger and window."""
    boundary, cost = mcm_dist.phase_boundary, mcm_dist.augment_cost

    def note(grid, stats, phase_no, **kwargs):
        _log.grid = grid
        boundary(grid, stats, phase_no, **kwargs)

    def priced(*args):
        out = cost(*args)
        _log.events.append(("cost", *out))
        return out

    def measured(run, ops=lambda args: 0):
        def wrapper(*args):
            steps, before = ledger_totals(_log.grid)[0], ops(args)
            out = run(*args)
            _log.events.append(("run", ledger_totals(_log.grid)[0] - steps, ops(args) - before))
            return out
        return wrapper

    monkeypatch.setattr(mcm_dist, "augment_cost", priced)
    monkeypatch.setattr(mcm_dist, "phase_boundary", note)
    monkeypatch.setattr(mcm_dist, "Window", measured(mcm_dist.Window))
    monkeypatch.setattr(mcm_dist, "augment_level_spmd", measured(mcm_dist.augment_level_spmd))
    monkeypatch.setattr(mcm_dist, "augment_path_spmd_rma",
                        measured(mcm_dist.augment_path_spmd_rma, lambda args: args[0].rma_ops))


@pytest.mark.parametrize("backend", ["thread", "process"])
@pytest.mark.parametrize("pr,pc", [(1, 2), (2, 2), (2, 3), (3, 3)])
@pytest.mark.parametrize("mode", ["level", "path"])
def test_priced_augmentation_equals_its_ledger(monkeypatch, force_augment, no_handoff,
                                               mode, pr, pc, backend):
    force_augment(mode)
    _record(monkeypatch)
    res = spmd(pr * pc, _recording_rank_main, ROAD, pr, pc, backend=backend, timeout=60)
    phases = []
    for events in res.values:
        rank = []
        for kind, steps, ops in events:
            if kind == "cost":
                rank.append([steps, ops, 0, 0])
            else:
                rank[-1][2] += steps
                rank[-1][3] += ops
        phases.append(rank)
    assert len({len(rank) for rank in phases}) == 1 and len(phases[0]) >= 2
    for n, per_rank in enumerate(zip(*phases)):
        # the steps on every rank's ledger, the one-sided ops over the grid
        assert {(want, got) for want, _, got, _ in per_rank} == {(per_rank[0][0],) * 2}, n
        assert per_rank[0][1] == sum(ops for *_, ops in per_rank), n
    assert (sum(ops for _, ops, _, _ in phases[0]) > 0) == (mode == "path")


# -- the end-to-end deep core --------------------------------------------------------


def test_the_deep_core_hands_off_after_phase_one_bfs(e2e_workloads):  # noqa: F811
    inst = e2e_workloads.build("mcm_deep_t4", seed=1)
    mate_r, mate_c, stats = run_mcm_dist(inst.coo, 2, 2, backend="thread", timeout=60)
    assert e2e_workloads.digest(mate_r, mate_c) == RELABELED_ROAD[0]
    assert (stats.phases, stats.iterations) == RELABELED_ROAD[1][:2]
    # phase 1's BFS ran on the grid, its paths in the tail (the level call)
    assert (stats.tail_phases, stats.augment_level_calls, stats.augment_path_calls) == (4, 1, 0)
    steps, words = stats.ledger()
    # 36 latency steps per rank: no collective follows the tail's gather
    # (38 while a closing allgather carried the counters, 120 when the rule
    # waited for phase 1's augmentation, then paid phase 2 too)
    assert steps == 4 * 36
    assert EDISON.price(4, steps, words, stats.edges_examined).total <= 0.00035


# -- a restart reports the fault-free counters ------------------------------------------

#: every DistStats counter but the recovery ones (restarts, replays,
#: checkpoint words, restart spans) and the wire ledger, which counts the
#: surviving attempt's traffic
COUNTERS = ("phases", "iterations", "augment_level_calls", "augment_path_calls",
            "initial_cardinality", "final_cardinality", "topdown_steps", "bottomup_steps",
            "edges_examined", "init_edges", "tail_phases", "tail_iterations", "tail_edges",
            "rma_ops", "rma_words")


@pytest.mark.parametrize("backend", ["thread", "process"])
@pytest.mark.parametrize("seam", ["no_handoff", "rule"])
def test_a_restart_reports_the_fault_free_counters(request, seam, backend):
    """Rank 1 dies entering phase 3 of an all-distributed run (the job
    resumes from phase 2's snapshot; 10 iterations, 424 edges, 0 initializer
    reads, initial cardinality 322 and 40 top-down block-iterations when the
    counters did not ride the snapshot), or inside the tail (the job
    resumes from the hand-off's snapshot, written after the tail applied
    phase 1's paths)."""
    if seam == "no_handoff":
        request.getfixturevalue("no_handoff")
    ok_r, _, ok = run_mcm_dist(ROAD, 2, 2, backend=backend, timeout=60)
    crash = 3 if seam == "no_handoff" else ok.phases - ok.tail_phases + 2
    mate_r, _, stats = run_mcm_dist(ROAD, 2, 2, backend=backend, timeout=60, max_restarts=2,
                                    faults=f"crash:rank=1,at=phase:{crash}")
    assert stats.restarts == 1
    np.testing.assert_array_equal(mate_r, ok_r)
    assert [getattr(stats, c) for c in COUNTERS] == [getattr(ok, c) for c in COUNTERS]
    if seam == "no_handoff":
        assert (ok.iterations, ok.edges_examined, ok.init_edges, ok.initial_cardinality,
                ok.topdown_steps) == (38, 1_903, 1_803, 289, 152)
    else:
        assert ok.tail_phases == ok.phases - 1 >= 3


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
    assert [getattr(stats, c) for c in COUNTERS] == [getattr(ok, c) for c in COUNTERS]
