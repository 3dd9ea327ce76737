"""Parity of the superstep message coalescer: aggregate=on vs off.

Aggregation is a *physical* optimization: with ``CollectiveConfig
.aggregate`` on, every payload a rank emits toward one peer within a
superstep travels as one framed buffer, and hub/star plans replace the
round-based collective schedules on the wire.  Nothing logical may move:
mate vectors must stay bit-identical, the logical ``by_alg`` ledger (the
quantity BENCH gates and the trace cross-check consume) must match entry
for entry, and the only visible difference is the physical frame ledger
— strictly fewer frames than logical messages once the grid is big
enough for the hub plans to engage (p ≥ 4).
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.graphs.rmat import er, g500
from repro.matching.mcm_dist import run_mcm_dist
from repro.runtime import SUM, FaultInjector, FaultPlan, spmd
from repro.runtime.comm import CollectiveConfig

AGG_ON = CollectiveConfig(aggregate=True)
AGG_OFF = CollectiveConfig(aggregate=False)

GRIDS = [(1, 1), (2, 2), (3, 3)]
INPUTS = {
    "er": lambda seed: er(6, seed=seed),
    "rmat": lambda seed: g500(6, seed=seed),
}


def _run(coo, pr, pc, backend, config, **kw):
    return run_mcm_dist(
        coo, pr, pc, backend=backend, comm_config=config, timeout=60, **kw
    )


def _assert_on_off_parity(coo, pr, pc, backend):
    mr_on, mc_on, st_on = _run(coo, pr, pc, backend, AGG_ON)
    mr_off, mc_off, st_off = _run(coo, pr, pc, backend, AGG_OFF)
    np.testing.assert_array_equal(mr_on, mr_off)
    np.testing.assert_array_equal(mc_on, mc_off)
    # the logical ledger is aggregation-invariant, entry for entry
    assert st_on.comm_by_alg == st_off.comm_by_alg
    assert st_on.comm_messages == st_off.comm_messages
    # off = one frame per message, by definition of the physical ledger
    assert st_off.frames == st_off.comm_messages
    p = pr * pc
    if p >= 4:
        # hub/star plans engaged: strictly fewer physical frames
        assert st_on.frames < st_on.comm_messages, (
            f"{pr}x{pc} {backend}: {st_on.frames} frames vs "
            f"{st_on.comm_messages} messages — coalescer never engaged"
        )
    else:
        assert st_on.frames <= st_on.comm_messages
    return st_on


# -- the full deterministic grid: grids x inputs x backends -----------------

@pytest.mark.parametrize("backend", ["thread", "process"])
@pytest.mark.parametrize("pr,pc", GRIDS)
@pytest.mark.parametrize("graph", sorted(INPUTS))
def test_on_off_parity(graph, pr, pc, backend):
    _assert_on_off_parity(INPUTS[graph](1), pr, pc, backend)


# -- randomized: hypothesis walks seeds/shapes on the thread backend --------

@settings(max_examples=10, deadline=None)
@given(
    graph=st.sampled_from(sorted(INPUTS)),
    grid=st.sampled_from(GRIDS),
    seed=st.integers(0, 7),
)
def test_on_off_parity_randomized(graph, grid, seed):
    _assert_on_off_parity(INPUTS[graph](seed), *grid, "thread")


# -- frame-ledger observability ---------------------------------------------

def test_flush_spans_reconcile_with_frame_ledger():
    """Every coalesced frame is traced: the ``comm:flush`` spans' frame and
    word totals must equal the physical CommStats ledger exactly, while the
    logical span cross-check (``comm_words_by_key``) stays untouched."""
    coo = er(6, seed=1)
    _, _, stats = _run(coo, 2, 2, "thread", AGG_ON, trace="ticks")
    totals = stats.trace.flush_totals()
    assert totals["frames"] == stats.frames
    assert totals["words"] == stats.frame_words
    # each frame coalesces >= 1 physical entry (logical ledger messages
    # replaced by hub plans never reach the wire, so this counter is the
    # physical batch size, not comm_messages)
    assert totals["messages"] >= totals["frames"]
    # flush spans are physical observability, never logical ledger entries
    for key in stats.trace.comm_words_by_key():
        assert "flush" not in key


def test_direction_auto_overlap_parity():
    """The nonblocking direction-count overlap (iallreduce posted at the
    superstep tail) must preserve on/off parity under direction=auto."""
    coo = er(7, seed=1)
    mr_on, mc_on, st_on = _run(coo, 3, 3, "thread", AGG_ON, direction="auto")
    mr_off, mc_off, st_off = _run(coo, 3, 3, "thread", AGG_OFF, direction="auto")
    np.testing.assert_array_equal(mr_on, mr_off)
    np.testing.assert_array_equal(mc_on, mc_off)
    assert st_on.comm_by_alg == st_off.comm_by_alg
    assert st_on.frames < st_on.comm_messages


# -- fault streams: the injector sees the logical schedule either way --------

FAULT_PLAN = "transient:p=0.05;delay:p=0.2;link:src=0,dst=1,alpha=3,beta=2"


def _every_collective_thrice(comm):
    p, r = comm.size, comm.rank
    for k in range(3):
        comm.barrier()
        comm.allreduce(np.arange(4, dtype=np.int64) + r + k, op=SUM)
        comm.allgatherv(np.arange((r * 13 + k * 5) % 7, dtype=np.int64))
        comm.alltoallv(
            [np.arange((r + 2 * d + k) % 5, dtype=np.int64) for d in range(p)]
        )
        comm.bcast(np.arange(5, dtype=np.int64) if r == 1 else None, root=1)
        comm.reduce(np.arange(3, dtype=np.int64) * r, op=SUM, root=2)


@pytest.mark.parametrize("p", [4, 5, 9])
def test_fault_streams_are_aggregation_invariant(p):
    """The hub plans replay the round-based schedules message for message
    (same destinations, words and per-rank order), so the injector's
    decisions, retries and model time cannot tell whether a message
    travelled individually — the promise ``comm.py``'s docstring makes."""
    runs = []
    for cfg in (AGG_ON, AGG_OFF):
        inj = FaultInjector(FaultPlan.parse(FAULT_PLAN, seed=7), p)
        res = spmd(p, _every_collective_thrice, faults=inj, comm_config=cfg,
                   timeout=60)
        runs.append((
            inj.events,
            inj.model_seconds,
            [s.retries for s in res.stats],
            [s.by_alg for s in res.stats],
        ))
    on, off = runs
    assert on == off
    assert sum(on[2]) > 0, "plan injected no retry: the gate would be vacuous"
