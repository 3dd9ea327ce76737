"""The physical plan follows communicator size; nothing logical moves.

Superstep aggregation is a *physical* optimization, and which plan runs
is read off ``Communicator.size`` (``comm._HUB_MIN_RANKS``): from three
ranks up hub/star waves replace the round-based collective schedules on
the wire; a communicator of at most two ranks walks its schedules, so
nothing crosses the fabric twice.  Either way there is one send path — a
message is on the fabric when its send returns.  Nothing logical may move
under either plan: mate vectors stay
bit-identical, the logical ``by_alg`` ledger (the quantity BENCH gates and
the trace cross-check consume) matches entry for entry, and the only
visible difference is the physical frame ledger.  "off" below is the
:func:`~tests.conftest.walk_everywhere` seam — every schedule walked for
real, the definition the hub replay must reproduce.
"""

import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.graphs.rmat import er, g500
from repro.matching.mcm_dist import run_mcm_dist
from repro.runtime import SUM, FaultInjector, FaultPlan, spmd

from ..conftest import walk_everywhere

GRIDS = [(1, 1), (2, 2), (3, 3)]
INPUTS = {
    "er": lambda seed: er(6, seed=seed),
    "rmat": lambda seed: g500(6, seed=seed),
}


def _run(coo, pr, pc, backend, **kw):
    return run_mcm_dist(coo, pr, pc, backend=backend, timeout=60, **kw)


def _logical_words(stats):
    return sum(d["words"] for d in stats.comm_by_alg.values())


# -- the chooser: what the size rule puts on the fabric ----------------------

@pytest.mark.parametrize("backend", ["thread", "process"])
@pytest.mark.parametrize("pr,pc", [(1, 2), (2, 1)])
def test_two_rank_communicators_ship_nothing_twice(pr, pc, backend):
    """No communicator of a 1x2 / 2x1 grid has a third rank, so the star
    cannot save a frame: every logical message is exactly one frame and no
    payload word travels hub-and-back."""
    _, _, stats = _run(er(6, seed=1), pr, pc, backend)
    assert stats.comm_messages > 0
    assert stats.frames == stats.comm_messages
    assert stats.frame_words == _logical_words(stats)


def _assert_on_off_parity(coo, pr, pc, backend, **kw):
    mr_on, mc_on, st_on = _run(coo, pr, pc, backend, **kw)
    with walk_everywhere():
        mr_off, mc_off, st_off = _run(coo, pr, pc, backend, **kw)
    np.testing.assert_array_equal(mr_on, mr_off)
    np.testing.assert_array_equal(mc_on, mc_off)
    # the logical ledger is plan-invariant, entry for entry
    assert st_on.comm_by_alg == st_off.comm_by_alg
    assert st_on.comm_messages == st_off.comm_messages
    # walked = one frame per message, by definition of the physical ledger
    assert st_off.frames == st_off.comm_messages
    assert st_off.frame_words == _logical_words(st_off)
    if pr * pc >= 3:
        # the grid's own communicator has >= 3 ranks: hub plans engaged,
        # strictly fewer physical frames
        assert st_on.frames < st_on.comm_messages, (
            f"{pr}x{pc} {backend}: {st_on.frames} frames vs "
            f"{st_on.comm_messages} messages — hub plan never engaged"
        )
    else:
        assert st_on.frames == st_on.comm_messages


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
    grid=st.sampled_from(GRIDS + [(1, 2), (2, 3)]),
    seed=st.integers(0, 7),
)
def test_on_off_parity_randomized(graph, grid, seed):
    _assert_on_off_parity(INPUTS[graph](seed), *grid, "thread")


# -- frame-ledger observability ---------------------------------------------

def test_physical_ledger_matches_committed_row():
    """er(9, seed=1) on 3x3 reproduces the committed ``BENCH_spmd.json``
    engine row's logical and physical message ledgers *exactly*
    (``bench_collectives.py --check`` gates them only at 10 %).  Reading
    the committed row, not literals, moves the pin with any later PR that
    regenerates the file."""
    bench = Path(__file__).resolve().parents[2] / "BENCH_spmd.json"
    row = json.loads(bench.read_text())["runs"]["er9"]["engine"]
    _, _, stats = _run(er(9, seed=1), 3, 3, "thread", direction="auto")
    for key in ("comm_messages", "frames", "frame_words"):
        assert getattr(stats, key) == row[key], key


# -- fault streams: the injector sees the logical schedule either way --------

FAULT_PLAN = "transient:p=0.05;delay:p=0.2"


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


def _fault_run(p):
    inj = FaultInjector(FaultPlan.parse(FAULT_PLAN, seed=7), p)
    res = spmd(p, _every_collective_thrice, faults=inj, timeout=60)
    return (
        inj.events,
        [s.retries for s in res.stats],
        [s.by_alg for s in res.stats],
    )


@pytest.mark.parametrize("p", [4, 5, 9])
def test_fault_streams_are_aggregation_invariant(p):
    """The hub plans replay the round-based schedules message for message
    (same destinations, words and per-rank order), so the injector's
    decisions and retries cannot tell whether a message travelled
    individually — the promise ``comm.py``'s docstring makes."""
    hub = _fault_run(p)
    with walk_everywhere():
        walk = _fault_run(p)
    assert hub == walk
    assert sum(hub[1]) > 0, "plan injected no retry: the gate would be vacuous"
