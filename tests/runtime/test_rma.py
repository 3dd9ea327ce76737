"""One-sided (RMA) window semantics."""

import os

import numpy as np
import pytest

from repro.runtime import (
    CrashSpec,
    FaultInjector,
    FaultPlan,
    RankKilledError,
    Window,
    WindowError,
    spmd,
)

from ..helpers import rma_walk


def test_get_reads_remote_memory():
    def main(comm):
        local = np.full(4, comm.rank, dtype=np.int64)
        win = Window(comm, local)
        win.fence()
        got = win.get((comm.rank + 1) % comm.size, 2)
        win.fence()
        win.free()
        return int(got)

    res = spmd(3, main)
    assert res.values == [1, 2, 0]


def test_put_writes_remote_memory():
    def main(comm):
        local = np.zeros(comm.size, dtype=np.int64)
        win = Window(comm, local)
        win.fence()
        for target in range(comm.size):
            win.put(target, comm.rank, comm.rank + 1)
        win.fence()
        win.free()
        return local.tolist()

    res = spmd(4, main)
    for v in res:
        assert v == [1, 2, 3, 4]


def test_vectorized_get_and_put():
    def main(comm):
        local = np.arange(8, dtype=np.int64) + 100 * comm.rank
        win = Window(comm, local)
        win.fence()
        idx = np.array([1, 3, 5])
        vals = win.get((comm.rank + 1) % comm.size, idx)
        win.fence()
        win.free()
        return vals.tolist()

    res = spmd(2, main)
    assert res[0] == [101, 103, 105]
    assert res[1] == [1, 3, 5]


def test_fetch_and_op_replace_returns_old_value():
    """The fused read-old/install-new used by path-parallel augmentation."""

    def main(comm):
        local = np.full(2, -1, dtype=np.int64)
        win = Window(comm, local)
        win.fence()
        if comm.rank == 1:
            old = win.fetch_and_op(0, 0, 42)     # replace
            old2 = win.fetch_and_op(0, 0, 43)    # replace again
            win.fence()
            win.free()
            return (int(old), int(old2))
        win.fence()
        result = int(local[0])
        win.free()
        return result

    res = spmd(2, main)
    assert res[1] == (-1, 42)
    assert res[0] == 43


def test_fetch_and_op_with_operator():
    def main(comm):
        local = np.array([10], dtype=np.int64)
        win = Window(comm, local)
        win.fence()
        old = win.fetch_and_op(comm.rank, 0, 5, op=np.add)
        win.fence()
        win.free()
        return (int(old), int(local[0]))

    res = spmd(1, main)
    assert res[0] == (10, 15)


def test_accumulate_is_atomic_under_contention():
    """All ranks accumulate into rank 0's counter with ``fetch_and_op(op=
    np.add)``; the total must be exact, and the fetched old values must be
    exactly 0 .. P*REPS-1 — no two ops ever read the same counter state."""
    P, REPS = 8, 200

    def main(comm):
        local = np.zeros(1, dtype=np.int64)
        win = Window(comm, local)
        win.fence()
        olds = [int(win.fetch_and_op(0, 0, 1, op=np.add)) for _ in range(REPS)]
        win.fence()
        result = int(local[0])
        win.free()
        return result, olds

    res = spmd(P, main)
    assert res[0][0] == P * REPS
    assert sorted(o for _, olds in res.values for o in olds) == list(range(P * REPS))


def test_out_of_range_access_raises():
    def main(comm):
        win = Window(comm, np.zeros(4, dtype=np.int64))
        win.fence()
        try:
            win.get(0, 10)
        finally:
            win.fence()
            win.free()

    with pytest.raises(WindowError):
        spmd(2, main, timeout=5.0)


def test_access_after_free_raises():
    def main(comm):
        win = Window(comm, np.zeros(4, dtype=np.int64))
        win.free()
        win.get(0, 0)

    with pytest.raises(WindowError):
        spmd(2, main, timeout=5.0)


def test_window_memory_must_be_1d_array():
    def main(comm):
        Window(comm, np.zeros((2, 2)))

    with pytest.raises(WindowError):
        spmd(1, main, timeout=5.0)


def test_rma_op_counters():
    def main(comm):
        win = Window(comm, np.zeros(4, dtype=np.int64))
        win.fence()
        win.get(0, 1)
        win.put(0, 2, 7)
        win.fetch_and_op(0, 3, 9)
        win.fence()
        counters = (win.rma_ops, win.rma_words)
        win.free()
        return counters

    res = spmd(1, main)
    assert res[0] == (3, 3)


def test_two_windows_coexist():
    def main(comm):
        a = np.full(2, 1, dtype=np.int64)
        b = np.full(2, 2, dtype=np.int64)
        wa = Window(comm, a)
        wb = Window(comm, b)
        wa.fence(); wb.fence()
        va = wa.get((comm.rank + 1) % comm.size, 0)
        vb = wb.get((comm.rank + 1) % comm.size, 0)
        wa.fence(); wb.fence()
        wa.free(); wb.free()
        return (int(va), int(vb))

    res = spmd(2, main)
    for v in res:
        assert v == (1, 2)


def test_fence_after_free_raises():
    def main(comm):
        win = Window(comm, np.zeros(2, dtype=np.int64))
        win.free()
        win.fence()

    with pytest.raises(WindowError, match="after Window.free"):
        spmd(2, main, timeout=5.0)


def test_double_free_raises():
    def main(comm):
        win = Window(comm, np.zeros(2, dtype=np.int64))
        win.free()
        win.free()

    with pytest.raises(WindowError, match="double free"):
        spmd(2, main, timeout=5.0)


def _owner_stores_between_epochs(comm):
    peer = (comm.rank + 1) % comm.size
    local = np.zeros(4, dtype=np.int64)
    win = Window(comm, local)
    seen = []
    for epoch in range(3):
        win.fence()  # opens the access epoch; publishes the owner's stores
        seen.append(int(win.get(peer, 0)))
        win.put(peer, 1, 100 * epoch + comm.rank)
        win.fence(nosucceed=True)  # closes it: no one-sided call until the next fence
        seen.append(int(local[1]))
        local[0] = 10 * epoch + comm.rank + 1  # a direct store, outside any access epoch
    win.free()  # must not bring the stale fabric copy of local[0] back
    return seen, local.tolist()


@pytest.mark.parametrize("backend", ["thread", "process"])
def test_owner_stores_directly_outside_access_epochs(backend):
    res = spmd(2, _owner_stores_between_epochs, backend=backend, timeout=30.0)
    for rank, (seen, local) in enumerate(res.values):
        peer = 1 - rank
        assert seen == [0, peer, 1 + peer, 100 + peer, 11 + peer, 200 + peer]
        assert local == [21 + rank, 200 + peer, 0, 0]


def test_missing_target_window_during_an_abort_is_the_abort():
    """A rank killed inside an RMA walk aborts the job, then unlinks its
    window segment; a peer's first attach to it must report the abort (so
    the dead rank's error stays the job's primary one), not an illegal
    access — which is what the same miss means while the job is healthy."""
    from repro.runtime import CommAbort
    from repro.runtime.procfabric import ProcessFabric

    fabric = ProcessFabric(2)
    try:
        fabric.attach(0)
        with pytest.raises(WindowError, match="never attached"):
            fabric.attach_window_slot(99, 1)
        fabric.abort()
        with pytest.raises(CommAbort, match="rank 1 died with its window"):
            fabric.attach_window_slot(99, 1)
    finally:
        fabric.close_parent()


@pytest.mark.parametrize("backend", ["thread", "process"])
def test_a_window_job_leaves_no_shared_memory_behind(backend):
    """A job that opens, walks and frees a window leaves ``/dev/shm`` as it
    found it, and so does one whose rank is killed inside the walk, which
    never frees the window it holds open."""
    before = set(os.listdir("/dev/shm"))
    res = spmd(4, rma_walk, backend=backend, timeout=30.0)
    for rank, local in enumerate(res.values):
        assert local == [(rank - r) % 4 or 3 for r in range(4)]
    assert set(os.listdir("/dev/shm")) == before
    plan = FaultPlan(seed=0, crashes=(CrashSpec(rank=2, at="rma", n=2),))
    with pytest.raises(RankKilledError, match=r"\[spmd rank 2\]"):
        spmd(4, rma_walk, faults=FaultInjector(plan, 4), backend=backend, timeout=30.0)
    assert set(os.listdir("/dev/shm")) == before
