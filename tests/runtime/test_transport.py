"""Process-transport behavior: backend resolution, rank lifecycle, fault
containment, and the shared-memory plumbing underneath it.

The parity suite (``test_backend_parity``) checks that results match the
thread backend; this file checks the things that only exist on the process
side — forked children, pid-naming on hangs, orphan reaping, and the env /
argument resolution that selects a transport in the first place.
"""

import multiprocessing as mp
import os
import time

import numpy as np
import pytest

from repro.runtime import spmd
from repro.runtime.errors import CommError, DeadlockError, RankKilledError
from repro.runtime.executor import resolve_backend


def _no_orphans():
    # every forked rank must be joined or reaped by the time spmd returns
    return [p for p in mp.active_children() if p.name.startswith("spmd-rank")]


# -- backend resolution ------------------------------------------------------

def test_resolve_explicit_beats_env(monkeypatch):
    monkeypatch.setenv("REPRO_SPMD_BACKEND", "process")
    assert resolve_backend("thread") == "thread"


def test_resolve_env_default(monkeypatch):
    monkeypatch.setenv("REPRO_SPMD_BACKEND", "process")
    assert resolve_backend(None) == "process"
    monkeypatch.delenv("REPRO_SPMD_BACKEND")
    assert resolve_backend(None) == "thread"


def test_resolve_unknown_rejected():
    with pytest.raises(ValueError, match="unknown spmd backend"):
        resolve_backend("mpi")


def test_verify_rejects_explicit_process():
    with pytest.raises(ValueError, match="verify"):
        resolve_backend("process", verify=True)


def test_verify_falls_back_from_env(monkeypatch):
    monkeypatch.setenv("REPRO_SPMD_BACKEND", "process")
    assert resolve_backend(None, verify=True) == "thread"


# -- basic process-backend lifecycle -----------------------------------------

def test_process_round_trip_values_and_stats():
    def main(comm):
        total = comm.allreduce(np.array([comm.rank + 1], dtype=np.int64))
        return int(total[0])

    res = spmd(3, main, backend="process", timeout=30)
    assert res.values == [6, 6, 6]
    assert len(res.stats) == 3
    assert all(s.messages_sent > 0 for s in res.stats)
    assert not _no_orphans()


def test_process_any_source_gather_of_arrays():
    """The gather root receives ANY_SOURCE: each ndarray payload (inside a
    dict, so it takes the pickle path) lands in its sender's slot."""
    def main(comm):
        got = comm.gather({"blob": np.arange(4) + comm.rank}, root=2)
        return None if got is None else [g["blob"].tolist() for g in got]

    res = spmd(3, main, backend="process", timeout=30)
    assert res.values[2] == [[0, 1, 2, 3], [1, 2, 3, 4], [2, 3, 4, 5]]


def test_process_rank_exception_propagates_with_rank_context():
    def main(comm):
        if comm.rank == 2:
            raise RuntimeError("boom on two")
        comm.barrier()

    with pytest.raises(RuntimeError, match=r"\[spmd rank 2\] boom on two"):
        spmd(3, main, backend="process", timeout=15)
    assert not _no_orphans()


def test_process_silent_death_reports_exit_code():
    def main(comm):
        if comm.rank == 1:
            os._exit(9)  # no goodbye message, no result
        comm.barrier()

    with pytest.raises(CommError, match="exit code"):
        spmd(2, main, backend="process", timeout=15)
    assert not _no_orphans()


def test_process_deadlock_detected():
    def main(comm):
        if comm.rank == 0:
            comm.bcast(None, root=1)  # rank 1, the root, never enters

    with pytest.raises(DeadlockError, match="recv"):
        spmd(2, main, backend="process", timeout=2)
    assert not _no_orphans()


def test_process_hung_rank_named_by_pid():
    def main(comm):
        if comm.rank == 1:
            time.sleep(120)  # ignores the abort, must be reaped
        return comm.rank

    t0 = time.monotonic()
    with pytest.raises(TimeoutError, match=r"\(pid \d+\)"):
        spmd(2, main, backend="process", timeout=1, join_grace=1.0)
    assert time.monotonic() - t0 < 60  # backstop, not the full sleep
    assert not _no_orphans()


def test_process_chaos_kill_reaps_children():
    def main(comm):
        comm.barrier()
        return comm.rank

    with pytest.raises(RankKilledError, match="rank 1"):
        spmd(3, main, backend="process", timeout=15,
             faults="crash:rank=1,at=send:1")
    assert not _no_orphans()


def test_faults_accepts_plan_strings_on_both_backends():
    def main(comm):
        comm.barrier()

    for backend in ("thread", "process"):
        with pytest.raises(RankKilledError):
            spmd(2, main, backend=backend, timeout=15,
                 faults="crash:rank=0,at=send:1")


def test_process_progress_attached_to_error():
    def main(comm):
        comm.fabric.note_progress("phase", comm.rank + 3)
        if comm.rank == 1:
            raise ValueError("died mid-phase")
        comm.barrier()

    with pytest.raises(ValueError) as ei:
        spmd(2, main, backend="process", timeout=15)
    assert getattr(ei.value, "spmd_progress", {}).get("phase", 0) >= 4
