"""A killed rank must take the whole job down promptly and traceably.

One rank dies mid-call — in every collective, and in a one-sided RMA walk
inside ``augment_path_spmd_rma`` — and the survivors, blocked on traffic the
dead rank will never send, must unblock via the fabric abort well before any
timeout, with the primary exception naming the dead rank.  Plus the
join-backstop diagnostics: a rank hung *outside* the runtime is named
together with its last blocked operation.
"""

import time

import numpy as np
import pytest

from repro.matching.mcm_dist import run_mcm_dist
from repro.runtime import (
    CrashSpec,
    FaultInjector,
    FaultPlan,
    RankKilledError,
    spmd,
)
from repro.sparse import COO

NR, VICTIM = 4, 2

COLLECTIVES = {
    "barrier": lambda c: c.barrier(),
    "bcast": lambda c: c.bcast(c.rank, root=0),
    "gather": lambda c: c.gather(c.rank, root=0),
    "gatherv": lambda c: c.gather([c.rank] * (c.rank + 1), root=0),  # ragged
    "scatter": lambda c: c.scatter(list(range(c.size)) if c.rank == 0 else None, root=0),
    "allgather": lambda c: c.allgather(c.rank),
    "allgatherv": lambda c: c.allgatherv([c.rank] * (c.rank + 1)),
    "alltoall": lambda c: c.alltoall([c.rank] * c.size),
    "alltoallv": lambda c: c.alltoallv([[c.rank]] * c.size),
    "reduce": lambda c: c.reduce(c.rank),
    "allreduce": lambda c: c.allreduce(c.rank),
}


@pytest.mark.parametrize("name", sorted(COLLECTIVES))
def test_rank_killed_inside_collective_aborts_survivors(name):
    """The victim dies at its collective-entry fault point; peers blocked
    inside the same collective unwind with CommAbort (suppressed), and the
    caller sees RankKilledError carrying the victim's rank."""
    coll = COLLECTIVES[name]
    plan = FaultPlan(seed=0, crashes=(CrashSpec(rank=VICTIM, at="collective", n=1),))

    def main(comm):
        coll(comm)
        comm.barrier()  # never reached by anyone: the job is dead

    t0 = time.perf_counter()
    with pytest.raises(RankKilledError, match=rf"\[spmd rank {VICTIM}\]") as ei:
        spmd(NR, main, faults=FaultInjector(plan, NR), timeout=30.0)
    elapsed = time.perf_counter() - t0
    assert ei.value.spmd_rank == VICTIM
    assert elapsed < 5.0  # survivors unblocked by the abort, not the timeout


def test_rank_killed_inside_rma_walk_aborts_survivors(force_augment, no_handoff):
    """Kill the victim at its Nth one-sided op inside the path-augmentation
    RMA walk (Algorithm 4); the closing fences never complete on the
    survivors, so the abort must unwind them."""
    rng = np.random.default_rng(0)
    coo = COO(40, 40, rng.integers(0, 40, 400), rng.integers(0, 40, 400))
    plan = FaultPlan(seed=0, crashes=(CrashSpec(rank=VICTIM, at="rma", n=2),))

    force_augment("path")
    t0 = time.perf_counter()
    with pytest.raises(RankKilledError, match=rf"\[spmd rank {VICTIM}\]") as ei:
        run_mcm_dist(coo, 2, 2, init="none", faults=plan, timeout=30.0)
    elapsed = time.perf_counter() - t0
    assert ei.value.spmd_rank == VICTIM
    assert elapsed < 10.0


def test_rank_killed_mid_send_aborts_blocked_receiver():
    """Rank 0 dies at its third send — inside the third allgather, one send
    per call on two ranks; rank 1, blocked receiving from it, unwinds
    through the abort."""
    plan = FaultPlan(seed=0, crashes=(CrashSpec(rank=0, at="send", n=3),))

    def main(comm):
        return [comm.allgather(i) for i in range(5)]

    with pytest.raises(RankKilledError, match=r"\[spmd rank 0\]"):
        spmd(2, main, faults=FaultInjector(plan, 2), timeout=30.0)


def test_hung_rank_diagnostics_name_rank_and_last_blocked_op():
    """Satellite: the join-backstop TimeoutError must say WHICH rank hung
    and what it was last blocked on inside the runtime."""

    def main(comm):
        comm.allreduce(comm.rank)     # records the last blocked operation
        if comm.rank == 1:
            time.sleep(30)            # then hangs outside the runtime

    with pytest.raises(TimeoutError) as ei:
        spmd(2, main, timeout=0.3, join_grace=0.2)
    msg = str(ei.value)
    assert "rank 1" in msg
    assert "collective recv from rank 0 (comm 0, collective seq 1)" in msg


def test_hung_rank_that_never_blocked_is_reported_as_busy():
    def main(comm):
        if comm.rank == 0:
            time.sleep(30)

    with pytest.raises(TimeoutError) as ei:
        spmd(2, main, timeout=0.3, join_grace=0.2)
    msg = str(ei.value)
    assert "rank 0" in msg
    assert "never blocked in the runtime" in msg
