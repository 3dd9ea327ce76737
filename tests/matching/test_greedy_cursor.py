"""MCM-DIST's greedy initializer reads through a lookahead cursor.

Each free row proposes its minimum free column, and a matched column stays
matched, so one cursor per block row into the row-major mirror
(:func:`repro.kernels.advance_cursor`) finds every proposal that exploding
the block's free columns would.  The explode-based greedy is kept here as
the oracle: the proposals and resolves of every round, the mates, the
rounds and the whole ledger must be those of the cursor, on every grid
shape and both backends.  Only the edges read differ.
"""

from __future__ import annotations

import dataclasses
import threading

import numpy as np
import pytest

from repro.distmat.ops import concat_pieces
from repro.graphs.rmat import er, g500
from repro.matching import mcm_dist
from repro.matching.mcm_dist import _best, run_mcm_dist
from repro.sparse.spvec import NULL

GRIDS = [(1, 1), (1, 2), (2, 2), (2, 3), (3, 3)]
_EMPTY = np.empty(0, np.int64)


def explode_greedy(A, mate_r, mate_c, mate_cblk):
    """The greedy rounds as they ran before the cursor: every round
    explodes the block's free columns and reduces the candidates of the free
    rows to each row's minimum column.  Returns what
    :func:`~repro.matching.mcm_dist.proposal_rounds_spmd` returns."""
    grid, blk = A.grid, A.block
    nrows, ncols = max(1, A.nrows), max(1, A.ncols)
    free_r = np.ones(blk.nrows, dtype=bool)

    def accept(arows, acols, accepts) -> int:
        free_r[arows - A.row_lo] = False
        own = (arows >= mate_r.lo) & (arows < mate_r.hi)
        mate_r.set_local(arows[own], acols[own])
        return int(accepts.sum())

    unsent = (_EMPTY,) * 3
    total = edges = 0
    while True:
        cols = np.flatnonzero(mate_cblk.local == NULL)
        gcols = cols + A.col_lo
        lrows, key = blk.explode_cols(cols, gcols, gcols)[:2]
        edges += lrows.size
        open_row = free_r[lrows]
        lrows, key = _best(lrows[open_row], key[open_row])
        pieces = mcm_dist.allgather_arrays(grid.rowcomm, lrows + A.row_lo, key, *unsent)
        rows, key, *accepts = concat_pieces(pieces)
        if accepts[2].size:
            matched = accept(*accepts)
            total += matched
            if matched == 0:
                return total, edges
            open_row = free_r[rows - A.row_lo]
            rows, key = rows[open_row], key[open_row]
        rows, key = _best(rows, key)
        pcols = key % ncols
        mine = (pcols >= A.col_lo) & (pcols < A.col_hi)
        pieces = mcm_dist.allgather_arrays(grid.colcomm, pcols[mine], rows[mine])
        wcols, key = _best(*concat_pieces(pieces))
        wrows = key % nrows
        mate_cblk.set_local(wcols, wrows)
        own = (wcols >= mate_c.lo) & (wcols < mate_c.hi)
        mate_c.set_local(wcols[own], wrows[own])
        here = (wrows >= A.row_lo) & (wrows < A.row_hi)
        unsent = (wrows[here], wcols[here], np.array([wcols.size], np.int64))


def _run(monkeypatch, coo, pr, pc, backend, oracle):
    """One greedy job, with the explode oracle in place of the engine's
    initializer when ``oracle``; forked ranks inherit the patch.  Returns
    the mates, the stats without the initializer's reads, and (thread
    backend) every rank's initializer allgathers in order, as bytes."""
    here, log = threading.local(), {}
    rounds = explode_greedy if oracle else mcm_dist.proposal_rounds_spmd
    gather = mcm_dist.allgather_arrays

    def traced(A, *args, **policy):
        assert not policy
        here.grid, log[A.grid.comm.rank] = A.grid, []
        try:
            return rounds(A, *args)
        finally:
            here.grid = None

    def recorded(comm, *arrays):
        grid = getattr(here, "grid", None)
        if grid is not None:
            kind = "row" if comm is grid.rowcomm else "col"
            log[grid.comm.rank].append((kind, [np.asarray(a).tobytes() for a in arrays]))
        return gather(comm, *arrays)

    monkeypatch.setattr(mcm_dist, "proposal_rounds_spmd", traced)
    monkeypatch.setattr(mcm_dist, "allgather_arrays", recorded)
    mate_r, mate_c, st = run_mcm_dist(coo, pr, pc, init="greedy", backend=backend, timeout=60)
    monkeypatch.undo()
    stats = dataclasses.asdict(st)
    stats.pop("init_edges")
    return mate_r, mate_c, stats, log


@pytest.mark.parametrize("backend", ["thread", "process"])
@pytest.mark.parametrize("pr,pc", GRIDS)
def test_cursor_matches_the_explode_oracle(monkeypatch, pr, pc, backend):
    coo = er(8, seed=1)
    got = _run(monkeypatch, coo, pr, pc, backend, oracle=False)
    ref = _run(monkeypatch, coo, pr, pc, backend, oracle=True)
    np.testing.assert_array_equal(got[0], ref[0])
    np.testing.assert_array_equal(got[1], ref[1])
    # phases, iterations, initial cardinality, comm_by_alg (the rounds'
    # allgathers among them), frames and the per-phase ledger
    assert got[2] == ref[2]
    assert got[2]["initial_cardinality"] > 0


@pytest.mark.parametrize("pr,pc", GRIDS)
def test_proposals_match_round_by_round(monkeypatch, pr, pc):
    # a skewed graph: high-degree rows make the cursor skip runs of columns
    coo = g500(8, seed=1)
    got = _run(monkeypatch, coo, pr, pc, "thread", oracle=False)[3]
    ref = _run(monkeypatch, coo, pr, pc, "thread", oracle=True)[3]
    assert sorted(got) == list(range(pr * pc))
    assert got == ref
    rounds = sum(kind == "row" for kind, _ in got[0])
    assert rounds > 2


def test_cursor_reads_fewer_edges_than_the_explodes(monkeypatch):
    coo = er(8, seed=1)
    reads = []
    for oracle in (False, True):
        if oracle:
            monkeypatch.setattr(mcm_dist, "proposal_rounds_spmd", explode_greedy)
        stats = run_mcm_dist(coo, 2, 2, init="greedy", backend="thread", timeout=60)[2]
        reads.append(stats.init_edges)
        monkeypatch.undo()
    # the explodes read the whole block in the first round alone
    assert reads[1] > coo.nnz > reads[0] > 0
