"""The job shell (``repro.matching.job``): one driver under both engines.

A store exists iff the caller passes one or allows restarts — so the
default run carries no checkpoint traffic, and allowing restarts without
faults costs exactly the snapshots.  The ledgers below are those of the
two-exchange BFS iteration (the fold lands on each row's home, the path
ends ride the column hop) on the default, relabeled input, with the
initializer's accepts riding its next propose, no per-phase expand, no
header broadcast and one closing allgather of the mates, no counter riding
it, every phase distributed (the ``no_handoff`` seam); the two runs differ
by the snapshot traffic alone, and each snapshot carries the relabel seed
as one extra array.  A snapshot's words are counted as the wire and the
store hold it: each array at its range's width.
"""

import numpy as np
import pytest

from repro.graphs.rmat import er
from repro.matching.mcm_dist import run_mcm_dist
from repro.perfmodel import EDISON
from repro.runtime import CheckpointStore, FaultInjector, FaultPlan, RankKilledError


def _ledger(stats):
    return (stats.comm_messages, stats.frames, stats.frame_words, stats.ledger()[1])


def test_plain_run_carries_no_checkpoint_traffic(no_handoff):
    stats = run_mcm_dist(er(8, seed=3), 2, 2, init="greedy")[2]
    assert stats.checkpoint_words == 0
    # (313, 293, 25,937, 23,941 before the closing allgather and the
    # initializer's two-allgather round; 230, 214, 25,567, 23,547 before
    # blocks pulled by default, 24,811 / 22,791 before a pull was judged by
    # its expected read, 24,703 / 22,683 before the edge count rode the
    # scatter header; 24,706 / 22,686 before integer arrays crossed the wire
    # at their range's width; 230, 214, 3,463, 3,168 before the counters
    # left the closing allgather — the last figure then left that gather's
    # words out, and the ledger's words count them; 230, 214, 3,448, 3,396
    # and 28 barriers while phases of k < 2p² paths walked them on an RMA
    # window; 3,435 / 3,390 before each fold told the grid row the rows it
    # visited)
    assert _ledger(stats) == (211, 209, 3_458, 3_413)
    # no snapshot and no window: not one barrier
    assert "barrier:dissemination" not in stats.comm_by_alg
    assert stats.restart_spans == ()
    # the per-phase ledger is on every run
    assert list(stats.phase_ledger) == list(range(1, stats.phases + 1))


def test_allowing_restarts_costs_exactly_the_snapshots(no_handoff):
    stats = run_mcm_dist(er(8, seed=3), 2, 2, init="greedy", max_restarts=3)[2]
    assert stats.restarts == 0
    # three snapshots (phases 0..2) of the 256 row mates, two header words,
    # the relabel seed, the job's steps so far and the nine carried
    # counters, each array at its range's width: 2 bytes a mate while a row
    # is free, 1 once none is (64 words, then 32), a byte of seed, a word of
    # steps and 9 two-byte counters (3 words) — 71 + 71 + 39 (134 + 134 +
    # 70 while a snapshot held the column mates too and six counters; 135 +
    # 135 + 71 with nine counters, the one-sided ones among them; 134 + 134
    # + 70 before the steps rode the snapshot), where 8 bytes a value wrote
    # 3 * 524
    assert stats.checkpoint_words == 71 + 71 + 39
    # (385, 347, 31,832, 28,717 before; 302, 268, 31,462, 28,323 before
    # blocks pulled by default, 30,706 / 27,567 before a pull was judged by
    # its expected read, 30,598 / 27,459 before the edge count rode the
    # scatter header, 30,601 / 27,462 before each rank's counters rode the
    # snapshot's first allgather: 9 words to each of 3 peers, 3 snapshots;
    # 31,006 / 27,786 before integer arrays crossed the wire at their
    # range's width; 4,581 / 4,116 before the counters left the closing
    # allgather, the last figure without that gather's words; 302, 268,
    # 4,566, 4,344 while an RMA window's barriers and nine counters rode
    # along; 4,508 / 4,302 before each fold told the grid row the rows it
    # visited; 283, 263, 4,531, 4,325 while a snapshot was two grid
    # allgathers, the second of the column mates)
    assert _ledger(stats) == (259, 245, 4_098, 3_953)
    # one closing barrier per snapshot and per rank, and no other
    assert stats.comm_by_alg["barrier:dissemination"]["calls"] == 3 * 4


def test_a_store_alone_snapshots_without_restarting():
    # an in-memory store is one the thread backend's ranks can reach
    coo, store = er(8, seed=3), CheckpointStore()
    stats = run_mcm_dist(coo, 2, 2, init="greedy", checkpoint_store=store,
                         backend="thread")[2]
    # phases 0 and 1: the job hands off to its serial tail after phase 1,
    # whose snapshot carries the mark a resume goes straight back to the
    # tail on (a word), and the tail's phases write no snapshot; each
    # carries the nine job counters and the job's steps (134 + 134 while
    # each held both mate vectors and six counters; 135 + 135 with nine
    # counters; 134 + 135 before the steps rode the snapshot)
    assert stats.tail_phases == stats.phases - 1
    assert stats.checkpoint_words == store.words_written == 71 + 72
    with pytest.raises(RankKilledError):
        run_mcm_dist(coo, 2, 2, checkpoint_store=CheckpointStore(),
                     faults="crash:rank=1,at=phase:1", backend="thread")


@pytest.mark.parametrize("engine,seam", [("mcm", "no_handoff"), ("mcm", "rule"),
                                         ("mwm", "no_handoff")])
@pytest.mark.parametrize("pr,pc", [(2, 2), (2, 3)])
def test_a_snapshot_is_one_grid_allgather_and_a_barrier(request, engine, seam, pr, pc):
    """Both engines snapshot through ``Job.snapshot``: a job given a store
    differs from the plain job by exactly one grid allgather and
    ``save_checkpoint``'s barrier per snapshot, on every rank — but for
    MCM-DIST's hand-off snapshot, which rides the tail's own grid
    allgather and adds its barrier alone."""
    from repro.graphs.generators import edge_weights
    from repro.matching.mwm_dist import run_mwm_dist

    if seam == "no_handoff":
        request.getfixturevalue("no_handoff")
    coo = er(7, seed=2)
    weights = edge_weights(coo, dist="skewed", seed=3)

    def solve(**kwargs):
        if engine == "mcm":
            return run_mcm_dist(coo, pr, pc, backend="thread", **kwargs)[2]
        return run_mwm_dist(coo, weights, pr, pc, backend="thread", **kwargs)[2]

    store = CheckpointStore()
    plain, stored = solve(), solve(checkpoint_store=store)
    p, snapshots = pr * pc, store.saves
    # MCM-DIST's phase 0 and each phase the grid completes, the hand-off
    # phase included — not the last, which finds no path, nor a tail
    # phase; MWM-DIST's every ε-phase
    rides = stored.tail_phases > 0
    assert rides == (seam == "rule")
    assert snapshots == plain.phases - stored.tail_phases + rides
    step = (p - 1).bit_length()  # a grid allgather's and a barrier's steps
    none = {"calls": 0, "steps": 0}
    delta = {key: {f: stored.comm_by_alg.get(key, none)[f] - plain.comm_by_alg.get(key, none)[f]
                   for f in none}
             for key in {**stored.comm_by_alg, **plain.comm_by_alg}}
    gathers = snapshots - rides
    assert {key: d for key, d in delta.items() if any(d.values())} == {
        "allgather:dissemination": {"calls": p * gathers, "steps": p * step * gathers},
        "barrier:dissemination": {"calls": p * snapshots, "steps": p * step * snapshots}}


def test_default_store_recovers_on_both_backends(monkeypatch, tmp_path):
    """``launch`` creates a store the resolved backend's ranks can reach —
    for processes a file store in a temporary directory it removes — so the
    default chaos run lands on the same mates and restart trajectory."""
    monkeypatch.setattr("tempfile.tempdir", str(tmp_path))
    coo = er(7, seed=1)
    runs = {
        backend: run_mcm_dist(
            coo, 2, 2, max_restarts=30, backend=backend,
            faults=FaultPlan.parse("crash:rank=any,at=phase:every", seed=1),
        )
        for backend in ("thread", "process")
    }
    (mr_t, mc_t, st_t), (mr_p, mc_p, st_p) = runs["thread"], runs["process"]
    np.testing.assert_array_equal(mr_t, mr_p)
    np.testing.assert_array_equal(mc_t, mc_p)
    assert st_t.restarts == st_p.restarts >= 1
    assert st_t.restart_spans == st_p.restart_spans
    assert st_t.checkpoint_words == st_p.checkpoint_words > 0
    assert not list(tmp_path.iterdir())  # the throwaway directory is gone


def test_in_memory_store_on_processes_is_refused_by_name():
    with pytest.raises(ValueError, match=r"process.*CheckpointStore\("):
        run_mcm_dist(er(6, seed=2), 2, 2, checkpoint_store=CheckpointStore(),
                     backend="process")


def test_model_time_is_reported_whenever_an_injector_ran():
    """The ledger the scenarios price is the logical schedule's: an armed
    (empty) injector reports the plain run's per-phase ledger."""
    coo = er(6, seed=2)
    plain = run_mcm_dist(coo, 2, 2)[2]
    stats = run_mcm_dist(coo, 2, 2, faults=FaultPlan.parse("", seed=1))[2]
    assert sorted(stats.phase_ledger) == list(range(1, stats.phases + 1))
    assert stats.phase_ledger == plain.phase_ledger


def test_ready_made_injector_runs_one_attempt_only():
    coo = er(6, seed=2)
    injector = FaultInjector(FaultPlan.parse("delay:p=0.2", seed=1), 4)
    assert run_mcm_dist(coo, 2, 2, faults=injector)[2].phase_ledger
    with pytest.raises(ValueError, match="one attempt"):
        run_mcm_dist(coo, 2, 2, faults=injector, max_restarts=1)


def _by_hand(stats, p):
    """The per-rank terms of DESIGN §5, summed off the run's counters: no
    engine makes a one-sided access, so the rma term is zero."""
    steps = sum(d["steps"] for d in stats.comm_by_alg.values())
    words = sum(d["words"] for d in stats.comm_by_alg.values())
    return (EDISON.alpha * steps / p, EDISON.beta * words / p,
            EDISON.gamma * (stats.edges_examined + stats.init_edges) / p, 0.0)


def test_price_of_an_mcm_run(no_handoff):
    stats = run_mcm_dist(er(6, seed=1), 2, 2)[2]
    assert stats.init_edges > 0  # every term is charged
    price = stats.price(4)
    assert price == pytest.approx(_by_hand(stats, 4), rel=1e-12)
    assert price.rma_s == 0.0 and min(price[:3]) > 0
    assert price.total == sum(price)
    # the α, β and γ·edges_examined terms are the e2e harness's, to the bit
    steps, words = stats.ledger()
    assert price.alpha_s == EDISON.alpha * (steps / 4)
    assert price.beta_s == EDISON.beta * (words / 4)


def test_price_of_an_mwm_run():
    from repro.graphs.generators import edge_weights
    from repro.matching.mwm_dist import run_mwm_dist

    coo = er(6, seed=1)
    stats = run_mwm_dist(coo, edge_weights(coo, dist="uniform", seed=3), 2, 2)[2]
    assert stats.init_edges == 0 < stats.edges_examined
    price = stats.price(4)
    assert price == pytest.approx(_by_hand(stats, 4), rel=1e-12)
    assert price.rma_s == 0.0 and min(price[:3]) > 0
    assert price.total == sum(price)

