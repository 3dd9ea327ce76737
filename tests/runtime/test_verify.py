"""Dynamic verifiers: collective trace cross-checking and RMA race detection.

All failure-injection jobs run with ``verify=True`` so divergence raises a
precise :class:`CollectiveMismatchError` / :class:`RmaRaceError` immediately
instead of hitting the deadlock timeout.
"""

import numpy as np
import pytest

from repro.runtime import (
    SUM,
    CollectiveMismatchError,
    ReduceOp,
    RmaRaceError,
    Window,
    WindowError,
    spmd,
)

MAX = ReduceOp("max", np.maximum)


# ------------------------------------------------------------ collectives


def test_clean_job_reports_verify_summary():
    def main(comm):
        comm.barrier()
        total = comm.allreduce(comm.rank, op=SUM)
        comm.bcast(total, root=0)
        return total

    res = spmd(4, main, verify=True)
    assert res.values == [6, 6, 6, 6]
    assert res.verify_summary is not None
    assert res.verify_summary["collectives_checked"] > 0


def test_verify_off_by_default_has_no_summary():
    res = spmd(2, lambda comm: comm.allreduce(1, op=SUM))
    assert res.verify_summary is None


def test_mismatched_bcast_root_raises_with_both_ranks_named():
    def main(comm):
        # Rank 1 believes the root is itself: classic off-by-rank bug.
        root = 0 if comm.rank != 1 else 1
        return comm.bcast(comm.rank * 10, root=root)

    with pytest.raises(CollectiveMismatchError) as exc:
        spmd(3, main, verify=True, timeout=5.0)
    msg = str(exc.value)
    assert "bcast" in msg
    assert "root" in msg


def test_mixed_allgather_vs_alltoall_raises():
    def main(comm):
        if comm.rank == 0:
            comm.allgather(np.arange(2))
        else:
            comm.alltoall([np.arange(2)] * comm.size)

    with pytest.raises(CollectiveMismatchError) as exc:
        spmd(2, main, verify=True, timeout=5.0)
    msg = str(exc.value)
    assert "allgather" in msg and "alltoall" in msg


def test_mismatched_reduce_op_raises():
    def main(comm):
        op = SUM if comm.rank == 0 else MAX
        return comm.reduce(comm.rank, op=op, root=0)

    with pytest.raises(CollectiveMismatchError) as exc:
        spmd(2, main, verify=True, timeout=5.0)
    assert "sum" in str(exc.value) and "max" in str(exc.value)


def test_mismatched_reduce_payload_shape_raises():
    def main(comm):
        n = 4 if comm.rank == 0 else 5
        return comm.allreduce(np.ones(n, dtype=np.int64), op=SUM)

    with pytest.raises(CollectiveMismatchError):
        spmd(2, main, verify=True, timeout=5.0)


def test_divergent_collective_sequence_raises():
    """One rank runs an extra barrier: the *next* shared collective differs."""

    def main(comm):
        if comm.rank == 0:
            comm.barrier()
        comm.allreduce(1, op=SUM)

    with pytest.raises(CollectiveMismatchError):
        spmd(2, main, verify=True, timeout=5.0)


def test_split_is_part_of_the_checked_sequence():
    def main(comm):
        if comm.rank == 0:
            comm.split(0, 0)
        else:
            comm.bcast(None, root=0)

    with pytest.raises(CollectiveMismatchError) as exc:
        spmd(2, main, verify=True, timeout=5.0)
    assert "split" in str(exc.value)


def test_subcommunicator_collectives_are_verified_independently():
    def main(comm):
        sub = comm.split(comm.rank % 2, comm.rank)
        return sub.allreduce(comm.rank, op=SUM)

    res = spmd(4, main, verify=True)
    assert res.values == [2, 4, 2, 4]


# -------------------------------------------------------------------- RMA


def _window_job(body, nranks=2, size=8):
    def main(comm):
        local = np.zeros(size, dtype=np.int64)
        win = Window(comm, local)
        win.fence()
        out = body(comm, win)
        win.fence()
        win.free()
        return out

    return spmd(nranks, main, verify=True, timeout=5.0)


def test_out_of_range_put_raises_window_error():
    def body(comm, win):
        if comm.rank == 0:
            win.put(1, 10_000, 5)

    with pytest.raises(WindowError):
        _window_job(body)


def test_overlapping_puts_race_names_both_accesses():
    def body(comm, win):
        win.put(0, np.array([2, 3]), comm.rank)

    with pytest.raises(RmaRaceError) as exc:
        _window_job(body, nranks=2)
    msg = str(exc.value)
    assert "put" in msg
    assert "first access" in msg and "second access" in msg
    assert "rank 0:" in msg and "rank 1:" in msg


def test_get_put_overlap_is_a_race():
    """The bug ISSUE seeds into a path walk: read-modify-write with plain
    get+put instead of the atomic fetch_and_op."""

    def body(comm, win):
        if comm.rank == 0:
            old = win.get(0, 1)
            win.put(0, 1, old + 1)
        else:
            win.put(0, 1, -comm.rank)

    with pytest.raises(RmaRaceError):
        _window_job(body, nranks=2)


def test_concurrent_gets_do_not_race():
    def body(comm, win):
        return int(win.get(0, 3))

    res = _window_job(body, nranks=3)
    assert res.values == [0, 0, 0]


def test_atomic_accumulates_do_not_race():
    def body(comm, win):
        win.fetch_and_op(0, 2, comm.rank + 1, op=np.add)
        win.fetch_and_op(0, 2, 0, op=np.add)

    _window_job(body, nranks=3)


def test_fence_separates_epochs_no_race():
    def body(comm, win):
        if comm.rank == 0:
            win.put(0, 4, 7)
        win.fence()
        if comm.rank == 1:
            win.put(0, 4, 9)

    _window_job(body, nranks=2)


def test_disjoint_index_puts_do_not_race():
    def body(comm, win):
        win.put(0, comm.rank, comm.rank)

    _window_job(body, nranks=4, size=4)


def test_rma_ops_counted_in_summary():
    def main(comm):
        local = np.zeros(4, dtype=np.int64)
        win = Window(comm, local)
        win.fence()
        win.put((comm.rank + 1) % comm.size, 0, comm.rank)
        win.fence()
        got = win.get((comm.rank + 1) % comm.size, 0)
        win.fence()
        win.free()
        return int(got)

    res = spmd(2, main, verify=True)
    assert res.verify_summary["rma_ops_checked"] == 4  # 2 puts + 2 gets


def test_race_detection_off_when_not_verifying():
    """Without --verify the racy program keeps the old best-effort semantics
    (last writer wins) rather than raising."""

    def main(comm):
        local = np.zeros(8, dtype=np.int64)
        win = Window(comm, local)
        win.fence()
        win.put(0, np.array([2, 3]), comm.rank)
        win.fence()
        win.free()
        return None

    spmd(2, main)  # must not raise


# ------------------------------------------------------------- end-to-end


def test_mcm_dist_runs_clean_under_full_verification(no_handoff):
    from repro.graphs import rmat
    from repro.matching.mcm_dist import run_mcm_dist

    coo = rmat.er(scale=7, seed=3)
    mate_r, mate_c, stats = run_mcm_dist(coo, 2, 2, verify=True)
    assert stats.verify_summary is not None
    assert stats.verify_summary["collectives_checked"] > 0
    # every phase augments level-parallel: no one-sided access to check
    assert stats.verify_summary["rma_ops_checked"] == 0
    assert (mate_r != -1).sum() == stats.final_cardinality
