"""MCM-DIST's serial tail: once a distributed phase costs more latency than
gathering the graph, every rank finishes the job on the same serial phases.

The rule (:func:`~repro.matching.job.tail_is_cheaper`) is a pure
function of EDISON's constants and four replicated numbers, pinned here on
the end-to-end workloads' own numbers and on the paper's ``road_usa`` at
2,025 ranks.  Whatever phase a grid hands off at — the ``force_handoff``
seam tries each — the mates, phases and iterations are those of an
all-distributed run, a 1x1 ledger books no step, the tail pulling under
"auto" visits the top-down tail's rows phase by phase, every rank asks the
rule with the same step counts and hands off at the same phase, a crash
inside the tail restarts from the hand-off's snapshot, and the
initializer's edge reads are counted beside it.
"""

import os
import threading

import numpy as np
import pytest

from repro.graphs import suite
from repro.graphs.rmat import er
from repro.kernels import advance_cursor
from repro.matching import mcm_dist, msbfs
from repro.matching.job import tail_is_cheaper
from repro.matching.mcm_dist import mcm_dist_spmd, run_mcm_dist
from repro.perfmodel.collectives import msbfs_iteration
from repro.runtime import spmd
from repro.sparse.spvec import NULL

from ..helpers import topdown_edges
from .test_mcm_iteration_shape import _span_comms, e2e_workloads  # noqa: F401


def _words(nnz, n, pr, pc):
    """The engine's bound on the hand-off gather of an n × n matrix."""
    return nnz + 2 * min(nnz, pr * n) + 3 * pr * pc + 2 * n


# -- the rule ------------------------------------------------------------------


def test_rule_prices_the_deep_core_after_its_second_phase():
    # mcm_deep_t4: 20,118 edges, 5,840 × 5,840, 2x2; phase 1 costs 35 steps
    # per rank, phase 2 65
    words = _words(20_118, 5_840, 2, 2)
    assert not tail_is_cheaper(35, 4, words, 20_118)
    assert tail_is_cheaper(65, 4, words, 20_118)


def test_rule_never_fires_on_the_bulk_core():
    # mcm_bulk_t4: 1,048,120 edges; no phase costs more than 52 steps
    assert not tail_is_cheaper(52, 4, _words(1_048_120, 32_832, 2, 2), 1_048_120)


def test_rule_keeps_the_papers_road_usa_distributed():
    # the paper's road_usa on a 45 × 45 grid: a 100-iteration phase costs
    # 5,000 latency steps, far less than reading 57.7 M edges once
    nnz, n = 57_708_624, 23_947_347
    steps = 100 * int(msbfs_iteration(45, 45, 1.0, 0.0, 0.0, 0.0))
    assert steps == 5_000
    assert not tail_is_cheaper(steps, 45 * 45, _words(nnz, n, 45, 45), nnz)


def test_rule_never_fires_without_a_latency_step():
    assert not tail_is_cheaper(0, 1, _words(10, 5, 1, 1), 10)
    assert not tail_is_cheaper(0, 1, 0, 0)


# -- the hand-off --------------------------------------------------------------

ROAD = suite.load_scaled("road_usa", target_nnz=800, seed=1)[0]
_reference = {}


def _all_distributed():
    """The 1x1 run — no latency step, so never a hand-off."""
    if not _reference:
        _reference["run"] = run_mcm_dist(ROAD, 1, 1, direction="topdown", timeout=60)
    return _reference["run"]


@pytest.mark.parametrize("backend", ["thread", "process"])
@pytest.mark.parametrize("pr,pc", [(1, 2), (2, 2), (2, 3), (3, 3)])
def test_a_handoff_after_any_phase_keeps_the_results(pr, pc, backend, force_handoff):
    ref_r, ref_c, ref = _all_distributed()
    assert ref.phases == 4 and ref.tail_phases == 0
    for k in range(1, ref.phases):
        force_handoff(k)
        mate_r, mate_c, st = run_mcm_dist(
            ROAD, pr, pc, direction="topdown", backend=backend, timeout=60)
        np.testing.assert_array_equal(mate_r, ref_r, err_msg=f"hand-off after {k}")
        np.testing.assert_array_equal(mate_c, ref_c, err_msg=f"hand-off after {k}")
        assert (st.phases, st.iterations) == (ref.phases, ref.iterations), k
        # no hand-off after a phase that matched every column: the next one
        # runs no BFS
        perfect = k == ref.phases - 1 and ref.final_cardinality == ROAD.ncols
        assert st.tail_phases == (0 if perfect else ref.phases - k), k
        # top-down reads each frontier edge once, the tail's on every rank
        assert topdown_edges(st, pr * pc) == ref.edges_examined, k
        assert st.topdown_steps == st.iterations * pr * pc, k
        # the serial phases keep their boundaries: ledger and crash points
        assert list(st.phase_ledger) == list(range(1, st.phases + 1)), k


def test_a_1x1_ledger_holds_no_step():
    """A split of a 1-rank communicator sends nothing and books no step, so
    a 1x1 job's ledger is empty at every phase boundary: the job's steps
    never reach the rule's price."""
    _, _, st = _all_distributed()
    assert st.comm_by_alg["split:rendezvous"]["steps"] == 0
    assert all(d["steps"] == 0 for d in st.comm_by_alg.values())
    assert set(st.phase_ledger.values()) == {(0, 0)}


def test_the_pulling_tail_visits_the_top_down_tails_rows(monkeypatch, force_handoff):
    """er(10) on 2x2, handed off after phase 2's BFS: under "auto" the
    serial tail pulls wherever the blocks' rule would, and a pull stops at
    each row's minimum frontier column, the top-down reduce's winner.  So
    after every tail phase — the last, which finds no path, included — the
    rows visited (π ≠ NULL) are the top-down tail's, on every rank, while
    the tail reads fewer edges (51,226 top-down)."""
    run_phase, logs = msbfs.run_phase, {}

    def recording(a, mate_r, mate_c, pi_r, **kwargs):
        path_c = run_phase(a, mate_r, mate_c, pi_r, **kwargs)
        log = logs.setdefault(kwargs["direction"], {}).setdefault(threading.get_ident(), [])
        log.append((np.flatnonzero(pi_r != NULL), int((path_c != NULL).sum()),
                    kwargs["stats"].bottomup_steps))
        return path_c

    monkeypatch.setattr(msbfs, "run_phase", recording)
    force_handoff(2)
    coo = er(10, seed=1)
    runs = {d: run_mcm_dist(coo, 2, 2, direction=d, backend="thread", timeout=60)
            for d in ("auto", "topdown")}
    for direction, by_rank in logs.items():
        assert len(by_rank) == 4, direction
        first = next(iter(by_rank.values()))
        for log in by_rank.values():
            assert len(log) == len(first) == 4, direction
            for (rows, k, _), (rows0, k0, _) in zip(log, first):
                np.testing.assert_array_equal(rows, rows0)
                assert k == k0
    pulled, topdown = (next(iter(logs[d].values())) for d in ("auto", "topdown"))
    for n, ((rows, k, _), (rows_td, k_td, _)) in enumerate(zip(pulled, topdown), 1):
        np.testing.assert_array_equal(rows, rows_td, err_msg=f"tail phase {n}")
        assert k == k_td, n
    assert pulled[-1][1] == 0
    # at least one tail iteration pulled, and none of the top-down tail's
    assert pulled[-1][2] > 0 and topdown[-1][2] == 0
    (mate_r, mate_c, auto), (td_r, td_c, td) = runs["auto"], runs["topdown"]
    np.testing.assert_array_equal(mate_r, td_r)
    np.testing.assert_array_equal(mate_c, td_c)
    assert (auto.tail_phases, auto.tail_iterations) == (td.tail_phases, td.tail_iterations)
    assert td.tail_edges == 51_226 and auto.tail_edges == 9_431
    # every rank counts the tail's pulls, as it does the tail's edges
    assert auto.topdown_steps + auto.bottomup_steps == auto.iterations * 4
    assert auto.bottomup_steps >= 4 * pulled[-1][2]


_asked = threading.local()


def _asking_rank_main(comm, coo, pr, pc):
    """One rank of MCM-DIST that returns the (steps, answer) of each time it
    asked the hand-off rule."""
    _asked.log = []
    mcm_dist_spmd(comm, coo if comm.rank == 0 else None, pr, pc)
    return _asked.log


@pytest.mark.parametrize("backend", ["thread", "process"])
@pytest.mark.parametrize("pr,pc", [(1, 2), (2, 3)])
def test_every_rank_asks_the_rule_with_the_same_steps(monkeypatch, pr, pc, backend):
    """The rule reads only replicated numbers: the steps it is asked with
    are the same on every rank, non-square grids included (a row and a
    column communicator of different sizes), so every rank decides alike."""
    rule = mcm_dist.tail_is_cheaper

    def asked(steps, *rest):
        fires = rule(steps, *rest)
        _asked.log.append((steps, fires))
        return fires

    monkeypatch.setattr(mcm_dist, "tail_is_cheaper", asked)
    logs = spmd(pr * pc, _asking_rank_main, ROAD, pr, pc, backend=backend, timeout=60).values
    # it was asked each phase until the last answer handed off
    assert logs[0] and logs[0][-1][1] and not any(fires for _, fires in logs[0][:-1])
    assert all(log == logs[0] for log in logs)


@pytest.mark.parametrize("backend", ["thread", "process"])
def test_every_rank_hands_off_at_the_same_phase(backend):
    res = spmd(6, mcm_dist_spmd, ROAD, 2, 3, backend=backend, timeout=60)
    stats = [st for _, _, st in res.values]
    assert stats[0].tail_phases > 0
    assert len({(st.phases, st.tail_phases, st.tail_edges) for st in stats}) == 1
    assert len({tuple(st.phase_ledger) for st in stats}) == 1
    for mate_r, mate_c, _ in res.values[1:]:
        np.testing.assert_array_equal(mate_r, res.values[0][0])
        np.testing.assert_array_equal(mate_c, res.values[0][1])


@pytest.mark.parametrize("backend", ["thread", "process"])
def test_a_crash_in_the_tail_restarts_from_the_handoff_snapshot(backend):
    ok_r, ok_c, ok = run_mcm_dist(ROAD, 2, 2, backend=backend, timeout=60)
    handoff = ok.phases - ok.tail_phases
    assert ok.tail_phases >= 2
    shm = set(os.listdir("/dev/shm"))
    mate_r, mate_c, st = run_mcm_dist(
        ROAD, 2, 2, backend=backend, timeout=60, max_restarts=2,
        faults=f"crash:rank=any,at=phase:{handoff + 2}",
    )
    np.testing.assert_array_equal(mate_r, ok_r)
    np.testing.assert_array_equal(mate_c, ok_c)
    # the survivors run their tails to the end (no collective follows the
    # gather), but only the victim publishes a serial phase: the attempt
    # died in the phase it crashed in, and the one tail phase it completed
    # past the snapshot runs again
    assert st.restarts == 1
    assert st.restart_spans == ((0, handoff + 2),)
    assert st.phases_replayed == 1
    assert set(os.listdir("/dev/shm")) == shm


@pytest.mark.parametrize("graph,pr,pc", [("er9", 3, 3), ("deep", 2, 2)])
def test_the_rule_never_underprices_the_gather(graph, pr, pc, force_handoff,
                                              e2e_workloads):  # noqa: F811
    """The words the rule prices the hand-off gather at, W·(p−1)/p a rank,
    bound what the gather then puts on every rank's ledger: W counts the
    gathered arrays at full width, the wire carries them at their ranges'
    widths.  On ``BENCH_spmd.json``'s er:9 input and the e2e deep core,
    handing off after phase 1's BFS."""
    coo = er(9, seed=1) if graph == "er9" else e2e_workloads.build("mcm_deep_t4", seed=1).coo
    force_handoff(1)
    forced, priced = mcm_dist.tail_is_cheaper, []

    def recording(steps, p, words, *rest):
        fires = forced(steps, p, words, *rest)
        if fires:
            priced.append((p, words))
        return fires

    mcm_dist.tail_is_cheaper = recording
    try:
        stats = run_mcm_dist(coo, pr, pc, trace="ticks", timeout=60)[2]
    finally:
        mcm_dist.tail_is_cheaper = forced
    p = pr * pc
    assert stats.tail_phases > 0 and len(set(priced)) == 1 and len(priced) == p
    (_, words), = set(priced)
    gathers = [
        [c for c in comms if c.name == "allgather" and c.args["peers"] == p][0]
        for comms in _span_comms(stats.trace, "tail")
    ]
    assert len(gathers) == p
    assert max(g.args["words"] for g in gathers) <= words * (p - 1) / p


# -- the initializer's reads -----------------------------------------------------


@pytest.mark.parametrize("init", ["greedy", "none"])
def test_init_edges_are_the_initializers_explodes(monkeypatch, init):
    # greedy reads through its lookahead cursor, whose reads are counted
    sizes = []

    def cursor(*args):
        out = advance_cursor(*args)
        sizes.append(out[2])
        return out

    monkeypatch.setattr(mcm_dist, "advance_cursor", cursor)
    stats = run_mcm_dist(er(6, seed=1), 2, 2, init=init, backend="thread", timeout=60)[2]
    assert stats.init_edges == sum(sizes)
    assert (stats.init_edges > 0) == (init != "none")
