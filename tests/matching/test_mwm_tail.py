"""MWM-DIST's serial tail: once a phase's auction rounds cost more latency
than gathering the graph, every rank finishes the auction on the serial
twin's own loop (:func:`~repro.matching.auction.auction_phase_loop`).

The rule is MCM-DIST's (:func:`~repro.matching.job.tail_is_cheaper`), asked
at every round boundary; it is pinned here on the ``mwm_auction_t4``
end-to-end workload's own numbers.  Whatever round a grid hands off at — the
``force_handoff`` seam tries the first rounds, one mid-phase, the last
round of a phase and of the run — the mates, weight, counters, prices and
certificate are the twin's, the edge reads add up to the twin's once the
tail's extra copies are taken off, every rank decides alike (``verify``),
a crash inside the tail recovers to the same matching, and a restart or a
store before the hand-off leaves it where it was.
"""

import re

import numpy as np
import pytest

from repro.graphs.generators import edge_weights
from repro.graphs.rmat import er
from repro.matching import auction, auction_mwm_serial, run_mwm_dist
from repro.matching.job import tail_is_cheaper
from repro.matching.mwm_dist import CertificateError, mwm_dist_spmd
from repro.runtime import CheckpointStore, FileCheckpointStore, spmd
from repro.simulate.critpath import analyze

from ..helpers import job_counters

EPS = 0.05


def _heavy():
    """One edge at 1.0, the rest at 0.01 × uniform: three ε-phases, rounds
    1-4, 5-22 and 23-93 (so the hand-off can land mid-ladder)."""
    coo = er(5, seed=1, edgefactor=4)
    weights = edge_weights(coo, dist="uniform", seed=3) * 0.01
    weights[0] = 1.0
    return coo, weights


def _e2e_core():
    """The ``mwm_auction_t4`` core: er(7), uniform weights, seed 1."""
    coo = er(7, seed=1)
    return coo, edge_weights(coo, "uniform", 1)


def _ladder():
    """er(7) under one heavy edge: three ε-phases, and on 1x2 the rule
    hands off in phase 2, after phase 1's snapshot."""
    coo = er(7, seed=1)
    weights = edge_weights(coo, dist="uniform", seed=3) * 0.01
    weights[0] = 1.0
    return coo, weights


HEAVY = _heavy()
LADDER = _ladder()
_twin = {}


def _reference():
    if not _twin:
        coo, weights = HEAVY
        _twin["run"] = auction_mwm_serial(
            coo.nrows, coo.ncols, coo.rows, coo.cols, weights, epsilon=EPS)
    return _twin["run"]


# -- the rule ------------------------------------------------------------------


def test_rule_hands_the_e2e_auction_off_after_its_third_round():
    # mwm_auction_t4: N = 264, 7,562 doubled edges, 2x2; the rule is asked
    # with the job's steps: seven of set-up (two splits, the header's
    # broadcast, the edges' scatter), then three latency steps per round.
    # The hand-off gathers 3,649 (row, col, weight) triples, the 264 items
    # and prices, and four pack headers.  (Asked with the phase's steps
    # alone, the rule waited for round 6.)
    nnz, n = 7_562, 264
    words = 3 * (nnz - n) // 2 + 2 * n + 3 * 4
    assert not tail_is_cheaper(7 + 2 * 3, 4, words, nnz)
    assert tail_is_cheaper(7 + 3 * 3, 4, words, nnz)


def test_the_e2e_auction_hands_off_on_2x2_and_never_on_1x1():
    coo, weights = _e2e_core()
    one = run_mwm_dist(coo, weights, 1, 1, epsilon=EPS, timeout=60)
    four = run_mwm_dist(coo, weights, 2, 2, epsilon=EPS, timeout=60)
    assert one[2].tail_phases == one[2].tail_rounds == one[2].tail_edges == 0
    assert four[2].tail_phases == 1
    assert four[2].tail_rounds == four[2].auction_rounds - 3
    np.testing.assert_array_equal(one[0], four[0])
    np.testing.assert_array_equal(one[1], four[1])
    # the 1x1 run reads every edge once; 2x2 reads the tail on all 4 ranks
    assert four[2].edges_examined - 3 * four[2].tail_edges == one[2].edges_examined


# -- the hand-off --------------------------------------------------------------


def _assert_twin(st, mate_r, mate_c, p):
    ref_r, ref_c, info = _reference()
    np.testing.assert_array_equal(mate_r, ref_r)
    np.testing.assert_array_equal(mate_c, ref_c)
    np.testing.assert_array_equal(st.auction_prices, info["prices"])
    assert st.matching_weight == info["weight"]  # same float, not approx
    assert (st.phases, st.auction_rounds, st.bids_placed, st.price_updates) == (
        info["phases"], info["rounds"], info["bids"], info["price_updates"])
    assert (st.dual_bound, st.certified_ratio) == (info["dual_bound"], info["certified_ratio"])
    # every top-2 scan is counted once, the tail's on every rank
    assert st.edges_examined - (p - 1) * st.tail_edges == info["edges"]
    # the tail's phases keep their boundaries: ledger and crash points
    assert list(st.phase_ledger) == list(range(1, st.phases + 1))


@pytest.mark.parametrize("backend", ["thread", "process"])
@pytest.mark.parametrize("pr,pc", [(1, 1), (1, 2), (2, 2), (2, 3), (3, 3)])
def test_a_handoff_after_any_round_keeps_the_twins_results(pr, pc, backend, force_handoff):
    coo, weights = HEAVY
    rounds = _reference()[2]["rounds"]
    assert rounds == 93
    # never; the first two rounds; mid-phase 2; the last round of phase 2
    # and of the run (the tail only extracts)
    for k in (None, 1, 2, 13, 22, 93):
        force_handoff(k)
        mate_r, mate_c, st = run_mwm_dist(
            coo, weights, pr, pc, epsilon=EPS, backend=backend, timeout=60)
        _assert_twin(st, mate_r, mate_c, pr * pc)
        assert st.tail_rounds == (0 if k is None else rounds - k), k
        assert st.tail_phases == {None: 0, 1: 3, 2: 3, 13: 2, 22: 2, 93: 1}[k], k
        # the tail's replicated reads are its bids': none when it only
        # extracts (its share of the phase-end counts on its own rank)
        assert (st.tail_edges > 0) == (k not in (None, rounds)), k


@pytest.mark.parametrize("backend", ["thread", "process"])
@pytest.mark.parametrize("pr,pc", [(2, 2), (2, 3)])
def test_each_tail_phase_end_reads_one_pth_of_the_graph(
    pr, pc, backend, force_handoff, monkeypatch, tmp_path
):
    """Handed off after round 1, the tail ends three phases.  At each end
    every rank notes the edges of its share of the doubled CSC (to a file:
    forked ranks inherit the patch, not the parent's memory): the shares
    sum to the doubled nnz, and none exceeds ⌈nnz/p⌉ plus the longest
    column."""
    shipped, p = auction.column_share, pr * pc

    def note(cp, comm):
        lo, hi = shipped(cp, comm)
        with open(tmp_path / f"rank{comm.rank}", "a") as out:
            out.write(f"{cp[hi] - cp[lo]} {cp[-1]} {np.diff(cp).max()}\n")
        return lo, hi

    monkeypatch.setattr(auction, "column_share", note)
    force_handoff(1)
    coo, weights = HEAVY
    _, _, st = run_mwm_dist(coo, weights, pr, pc, epsilon=EPS, backend=backend, timeout=60)
    assert st.tail_phases == 3
    share, nnz, longest = np.stack(
        [np.loadtxt(tmp_path / f"rank{r}", dtype=np.int64, ndmin=2) for r in range(p)]).T
    assert share.shape == (st.tail_phases, p)
    np.testing.assert_array_equal(share.sum(axis=1), nnz[:, 0])
    assert (share <= -(-nnz // p) + longest).all()


def test_a_failed_certificate_in_the_tail_names_the_bidder_and_rank(
    force_handoff, monkeypatch
):
    """Every certificate fails, so the ladder runs to its floor, all of it
    in the tail (handed off after round 1), where the floor phase's error
    names the bidder of largest slack over every rank's share."""
    real = auction.certify
    monkeypatch.setattr(auction, "certify",
                        lambda *args: (*real(*args)[:2], False))
    force_handoff(1)
    coo, weights = HEAVY
    with pytest.raises(CertificateError) as err:
        run_mwm_dist(coo, weights, 2, 2, epsilon=EPS, timeout=60)
    message = str(err.value)
    assert "ladder's floor" in message and "W/(D/2) = " in message
    assert re.search(r"bidder \d+ \(held on rank [0-3]\) has the largest", message)


def test_a_handoff_under_cardinality_bias_keeps_the_twins_results(force_handoff):
    """With a bias the effective and original weights differ, and the tail
    keeps both."""
    coo, weights = HEAVY
    _, _, info = auction_mwm_serial(coo.nrows, coo.ncols, coo.rows, coo.cols, weights,
                                    epsilon=EPS, cardinality_bias=1.0)
    force_handoff(2)
    mate_r, mate_c, st = run_mwm_dist(coo, weights, 2, 2, epsilon=EPS, cardinality_bias=1.0,
                                      timeout=60)
    assert st.tail_rounds == info["rounds"] - 2
    np.testing.assert_array_equal(st.auction_prices, info["prices"])
    assert (st.matching_weight, st.certified_ratio) == (info["weight"], info["certified_ratio"])
    np.testing.assert_array_equal(mate_c[mate_r[mate_r >= 0]], np.flatnonzero(mate_r >= 0))
    assert int((mate_r >= 0).sum()) == info["cardinality"]
    # scored by the ORIGINAL weights, not the biased ones it bid with
    matched = weights[mate_c[coo.cols] == coo.rows]
    assert st.matching_weight == pytest.approx(float(matched.sum()), rel=1e-12)


@pytest.mark.parametrize("backend", ["thread", "process"])
def test_every_rank_hands_off_at_the_same_round(backend):
    coo, weights = _e2e_core()
    res = spmd(6, mwm_dist_spmd, coo, weights, 2, 3, backend=backend, timeout=60,
               epsilon=EPS)
    stats = [st for _, _, st in res.values]
    assert stats[0].tail_rounds > 0
    assert len({(st.phases, st.tail_phases, st.tail_rounds, st.tail_edges)
                for st in stats}) == 1
    for mate_r, mate_c, st in res.values[1:]:
        np.testing.assert_array_equal(mate_r, res.values[0][0])
        np.testing.assert_array_equal(mate_c, res.values[0][1])
        np.testing.assert_array_equal(st.auction_prices, stats[0].auction_prices)


def test_the_decision_reads_replicated_values_only():
    """``verify`` cross-checks every collective every rank enters: a rank
    that decided otherwise would enter the hand-off's allgather alone."""
    coo, weights = _e2e_core()
    _, _, st = run_mwm_dist(coo, weights, 2, 3, epsilon=EPS, verify=True, timeout=60)
    assert st.tail_rounds > 0
    assert st.verify_summary["collectives_checked"] > 0


@pytest.mark.parametrize("backend", ["thread", "process"])
def test_a_crash_in_the_tail_recovers_the_same_matching(backend, force_handoff):
    """Handed off after round 1, phases 2 and 3 are the tail's; rank 1 dies
    entering phase 3.  The hand-off writes no snapshot (its mid-phase state
    is no restart point) and no phase completed before it, so the job
    restarts from scratch and hands off again at the same round."""
    coo, weights = HEAVY
    force_handoff(1)
    mate_r, mate_c, st = run_mwm_dist(
        coo, weights, 2, 2, epsilon=EPS, backend=backend, timeout=60,
        max_restarts=2, faults="crash:rank=1,at=phase:3",
    )
    _assert_twin(st, mate_r, mate_c, 4)
    assert st.restarts == 1 and st.restart_spans == ((0, 3),)
    assert st.phases_replayed == 2
    assert st.tail_rounds == 92



@pytest.mark.parametrize("backend", ["thread", "process"])
def test_a_restart_or_a_store_before_the_handoff_keeps_it(backend, tmp_path):
    """``LADDER`` on 1x2 hands off in phase 2, after phase 1's snapshot.
    Rank 1 dies entering phase 2 and the job resumes from that snapshot on
    a fresh ledger; a job given a store pays for the snapshot, which the
    rule must not count.  Both hand off at the same round, with the plain
    run's counters."""
    coo, weights = LADDER

    def solve(**kwargs):
        return run_mwm_dist(coo, weights, 1, 2, epsilon=EPS, backend=backend, timeout=60,
                            **kwargs)

    def store(name):
        return (CheckpointStore() if backend == "thread"
                else FileCheckpointStore(str(tmp_path / name)))

    ok_r, _, ok = solve()
    assert (ok.phases, ok.tail_phases) == (3, 2)
    restarted = solve(max_restarts=2, checkpoint_store=store("restart"),
                      faults="crash:rank=1,at=phase:2")
    stored = solve(checkpoint_store=store("plain"))
    assert (restarted[2].restarts, restarted[2].restart_spans) == (1, ((0, 2),))
    assert stored[2].checkpoint_words > 0
    for mate_r, _, st in (restarted, stored):
        np.testing.assert_array_equal(mate_r, ok_r)
        assert job_counters(st) == job_counters(ok)


def test_trace_report_labels_the_tail_by_phase_and_round(force_handoff):
    coo, weights = HEAVY
    force_handoff(13)
    _, _, st = run_mwm_dist(coo, weights, 2, 2, epsilon=EPS, trace="ticks", timeout=60)
    labels = [ph["label"] for ph in analyze(st.trace)["phases"]]
    assert labels == ["phase 1", "phase 2", "tail 2 r14"]
