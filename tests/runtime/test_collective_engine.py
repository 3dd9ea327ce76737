"""Property tests for the latency-aware collective engine.

Every collective must match a NumPy-computed oracle on ragged payloads
across rank counts, including non-powers of two; ``CommStats.by_alg`` must
attribute each call to the algorithm that ran, with the modeled step
counts.  (The schedules themselves are tested as pure data in
``test_schedules.py``; hub-vs-walk parity in ``test_aggregation.py``.)
"""

from contextlib import nullcontext

import numpy as np
import pytest

from repro.distmat.ops import route
from repro.graphs.generators import edge_weights
from repro.graphs.rmat import er
from repro.matching.mcm_dist import run_mcm_dist
from repro.matching.mwm_dist import run_mwm_dist
from repro.runtime import SUM, ReduceOp, spmd

from ..conftest import walk_everywhere

SIZES = [1, 2, 3, 4, 5, 7, 8, 9]
MAX = ReduceOp("max", np.maximum)


def _payload(rank, k=0, size=None, dtype=np.int64):
    """Deterministic ragged per-rank payload (some ranks contribute nothing)."""
    n = (rank * 13 + k * 5) % 7 if size is None else size
    return (np.arange(n, dtype=dtype) * 31 + rank * 1000 + k * 100).astype(dtype)


def _merged_by_alg(result):
    out = {}
    for s in result.stats:
        for key, d in s.by_alg.items():
            acc = out.setdefault(key, dict.fromkeys(d, 0))
            for f, v in d.items():
                acc[f] += v
    return out


# One algorithm per collective now; the single-valued ``alg`` parameters
# below keep the surviving legs' test ids what they were beside the forks.

# -- bcast / reduce ----------------------------------------------------------


@pytest.mark.parametrize("p", SIZES)
@pytest.mark.parametrize("alg", ["binomial"])
def test_bcast_algorithms_match_oracle(p, alg):
    root = p // 2

    def main(comm):
        payload = _payload(root, size=9) if comm.rank == root else None
        return comm.bcast(payload, root=root)

    res = spmd(p, main)
    for got in res:
        assert np.array_equal(got, _payload(root, size=9))
    assert set(_merged_by_alg(res)) == {f"bcast:{alg}"}


@pytest.mark.parametrize("p", SIZES)
@pytest.mark.parametrize("alg", ["binomial"])
def test_reduce_algorithms_match_oracle(p, alg):
    root = p - 1
    want = np.sum([_payload(r, size=6) for r in range(p)], axis=0)

    def main(comm):
        return comm.reduce(_payload(comm.rank, size=6), op=SUM, root=root)

    res = spmd(p, main)
    assert np.array_equal(res[root], want)
    for r in range(p):
        if r != root:
            assert res[r] is None
    assert set(_merged_by_alg(res)) == {f"reduce:{alg}"}


# -- allreduce ---------------------------------------------------------------


@pytest.mark.parametrize("p", SIZES)
@pytest.mark.parametrize("alg", ["doubling"])
@pytest.mark.parametrize("op,np_op", [(SUM, np.sum), (MAX, np.max)])
def test_allreduce_algorithms_match_oracle(p, alg, op, np_op):
    want = np_op([_payload(r, size=5) for r in range(p)], axis=0)

    def main(comm):
        return comm.allreduce(_payload(comm.rank, size=5), op=op)

    res = spmd(p, main)
    for got in res:
        assert np.array_equal(got, want)
    assert set(_merged_by_alg(res)) == {f"allreduce:{alg}"}


def test_allreduce_algorithms_agree_on_scalars():
    for physical_plan in (nullcontext, walk_everywhere):
        with physical_plan():
            res = spmd(5, lambda comm: comm.allreduce(comm.rank + 1, op=SUM))
        assert list(res) == [15] * 5


# -- allgather(v) ------------------------------------------------------------


@pytest.mark.parametrize("p", SIZES)
@pytest.mark.parametrize("alg", ["dissemination"])
def test_allgatherv_ragged_payloads_match_oracle(p, alg):
    want = [_payload(r) for r in range(p)]  # ragged, some empty

    def main(comm):
        return comm.allgatherv(_payload(comm.rank))

    res = spmd(p, main)
    for got in res:
        assert len(got) == p
        for g, w in zip(got, want):
            assert np.array_equal(g, w)
    assert set(_merged_by_alg(res)) == {f"allgather:{alg}"}


# -- alltoall(v) -------------------------------------------------------------


@pytest.mark.parametrize("p", SIZES)
@pytest.mark.parametrize("alg", ["pairwise"])
def test_alltoallv_ragged_payloads_match_oracle(p, alg):
    def main(comm):
        payloads = [_payload(comm.rank, k=d) for d in range(p)]
        return comm.alltoallv(payloads)

    res = spmd(p, main)
    for r in range(p):
        got = res[r]
        assert len(got) == p
        for s in range(p):
            assert np.array_equal(got[s], _payload(s, k=r))
    assert set(_merged_by_alg(res)) == {f"alltoall:{alg}"}


@pytest.mark.parametrize("p", [4, 5, 9])
def test_alltoall_default_is_pairwise(p):
    def main(comm):
        return comm.alltoall([np.arange(2, dtype=np.int64)] * comm.size)

    res = spmd(p, main)
    by = _merged_by_alg(res)
    assert set(by) == {"alltoall:pairwise"}
    assert by["alltoall:pairwise"]["steps"] == p * (p - 1)


# -- step accounting ---------------------------------------------------------


def test_step_counts_at_p9_engine_vs_naive():
    """Per-rank per-call steps at p = 9: binomial/dissemination ⌈log₂9⌉ = 4,
    doubling 3 + 2 (non-power-of-two fold).  The naive side of the
    comparison (8 / 8 / 16) is frozen in ``BENCH_collectives.json``'s
    ``naive_reference`` block; ``bench_collectives.py --check`` keeps the
    ≥2× gate against it."""
    def main(comm):
        comm.bcast(np.arange(3), root=0)
        comm.allreduce(np.arange(3), op=SUM)
        comm.allgatherv(np.arange(3))
        return None

    eng = _merged_by_alg(spmd(9, main))
    assert eng["bcast:binomial"]["steps"] == 9 * 4
    assert eng["allgather:dissemination"]["steps"] == 9 * 4
    assert eng["allreduce:doubling"]["steps"] == 9 * 5


def test_by_alg_words_account_for_all_collective_traffic():
    def main(comm):
        comm.allgatherv(np.arange(comm.rank + 1, dtype=np.int64))
        comm.alltoallv([np.arange(2, dtype=np.int64)] * comm.size)
        return None

    res = spmd(4, main)
    total_by_alg = sum(d["words"] for d in _merged_by_alg(res).values())
    assert total_by_alg == res.total_words


# -- the plan is per communicator --------------------------------------------


def test_split_child_picks_its_plan_from_its_own_size():
    """A 4-rank parent runs the star (6 frames for doubling's 8 messages);
    its 2-rank children walk: one frame per message, nothing shipped
    twice."""

    def main(comm):
        child = comm.split(color=comm.rank % 2)
        comm.allreduce(comm.rank, op=SUM)
        child.allreduce(comm.rank, op=SUM)
        return (comm.stats.frames, comm.stats.messages_sent,
                child.stats.frames, child.stats.messages_sent)

    parent_frames, parent_msgs, child_frames, child_msgs = map(sum, zip(*spmd(4, main)))
    assert (parent_frames, parent_msgs) == (6, 8)
    assert child_frames == child_msgs == 4


# -- dtype preservation (route) ---------------------------


def test_route_preserves_dtypes_including_empty_results():
    def main(comm):
        # every rank sends only to rank 0: all other ranks receive nothing
        dest = np.zeros(3, dtype=np.int64)
        a = np.arange(3, dtype=np.int32) + comm.rank
        b = (np.arange(3, dtype=np.float64) + comm.rank) / 2
        c = np.full(3, comm.rank, dtype=np.uint8)
        ra, rb, rc = route(comm, dest, a, b, c)
        return ra.dtype, rb.dtype, rc.dtype, ra.size

    res = spmd(4, main)
    for r, (dta, dtb, dtc, n) in enumerate(res):
        assert (dta, dtb, dtc) == (np.dtype(np.int32), np.dtype(np.float64), np.dtype(np.uint8))
        assert n == (12 if r == 0 else 0)


def test_route_delivers_parallel_arrays_in_source_order():
    def main(comm):
        p = comm.size
        dest = np.arange(p, dtype=np.int64)  # one entry per destination
        vals = np.full(p, comm.rank * 10, dtype=np.int16)
        tags = np.arange(p, dtype=np.int64) + comm.rank * 100
        rv, rt = route(comm, dest, vals, tags)
        return rv.tolist(), rt.tolist()

    res = spmd(4, main)
    for r, (rv, rt) in enumerate(res):
        assert rv == [s * 10 for s in range(4)]
        assert rt == [r + s * 100 for s in range(4)]


# -- end-to-end bit-identity -------------------------------------------------

@pytest.mark.parametrize("grid", [(1, 1), (2, 2), (3, 3), (2, 3)],
                         ids=lambda g: f"{g[0]}x{g[1]}")
def test_mate_vectors_bit_identical_across_collective_configs(grid):
    """Two engines, two physical plans each: what the size rule picks on
    this grid against every schedule walked for real.  Neither engine runs
    an allreduce — MWM-DIST's counters are summed by the driver, not by a
    closing reduce, and a snapshot is a grid allgather — so allreduce's hub-vs-walk
    parity is
    ``test_aggregation.py::test_fault_streams_are_aggregation_invariant``'s
    (ledger and fault stream) and
    ``test_allreduce_algorithms_agree_on_scalars``'s (values)."""
    coo = er(scale=6, seed=3)
    mate_r, mate_c, _ = run_mcm_dist(coo, *grid)
    weights = edge_weights(coo, "uniform", seed=3)
    wmate_r, wmate_c, wstats = run_mwm_dist(coo, weights, *grid)
    with walk_everywhere():
        walked_r, walked_c, _ = run_mcm_dist(coo, *grid)
        wwalked_r, wwalked_c, wwalked = run_mwm_dist(coo, weights, *grid)
    assert np.array_equal(mate_r, walked_r)
    assert np.array_equal(mate_c, walked_c)
    assert np.array_equal(wmate_r, wwalked_r)
    assert np.array_equal(wmate_c, wwalked_c)
    assert wstats.matching_weight == wwalked.matching_weight
    assert not any(key.startswith("allreduce:") for key in wstats.comm_by_alg)
