"""Builders and readers the tests share; nothing in ``src/`` needs them."""

from __future__ import annotations

import dataclasses

import numpy as np

from repro.runtime import Window
from repro.sparse import COO


def coo_from_edges(nrows: int, ncols: int, edges) -> COO:
    """A pattern matrix from a list (or ``(m, 2)`` array) of (row, col)
    pairs, deduplicated like any :class:`COO`."""
    arr = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    return COO(nrows, ncols, arr[:, 0], arr[:, 1])


def long_path(n: int) -> COO:
    """The symmetric pattern of a path on ``n`` vertices — diameter n, the
    worst case for level-synchronous search."""
    i = np.arange(n - 1, dtype=np.int64)
    return COO(n, n, np.concatenate([i, i + 1]), np.concatenate([i + 1, i]))


def write_mm(coo: COO, path) -> None:
    """Write ``coo`` as a MatrixMarket coordinate pattern file, the format
    :func:`repro.sparse.mmio.read_mm` reads."""
    with open(path, "w", encoding="ascii") as fh:
        fh.write("%%MatrixMarket matrix coordinate pattern general\n")
        fh.write(f"{coo.nrows} {coo.ncols} {coo.nnz}\n")
        np.savetxt(fh, np.column_stack((coo.rows + 1, coo.cols + 1)), fmt="%d %d")


def gather_frontier(fr):
    """Every rank's ``(idx, parent, root)`` of a ``DistVertexFrontier``,
    concatenated and sorted by idx — collective: all ranks must call it."""
    pieces = fr.grid.comm.allgather((fr.idx, fr.parent, fr.root))
    idx, parent, root = (np.concatenate([p[k] for p in pieces]) for k in range(3))
    order = np.argsort(idx)
    return idx[order], parent[order], root[order]


def topdown_edges(stats, p: int) -> int:
    """MCM-DIST's ``edges_examined`` with the serial tail counted once
    instead of on each of the ``p`` ranks: the top-down algorithm's edge
    count, whichever phase the grid handed off at."""
    return stats.edges_examined - (p - 1) * stats.tail_edges


#: the DistStats fields a restart or a checkpoint store may change: the
#: recovery counters, and the wire ledger, which counts the surviving
#: attempt's traffic and the snapshots'
RESTART_EXEMPT = ("restarts", "phases_replayed", "checkpoint_words", "restart_spans",
                  "expand_words", "fold_words", "comm_messages", "frames", "frame_words")


def job_counters(stats) -> dict:
    """Every numeric ``DistStats`` field but :data:`RESTART_EXEMPT`, read
    off ``dataclasses.fields``: what a restarted job, or one given a store,
    must report as the plain job does."""
    return {f.name: getattr(stats, f.name) for f in dataclasses.fields(stats)
            if f.name not in RESTART_EXEMPT
            and isinstance(getattr(stats, f.name), (int, float))}


def rma_walk(comm):
    """Algorithm 4's access pattern on a bare window: inside one fenced
    epoch each rank reads its slot on the next rank, writes it back plus
    one, and fetch-and-replaces its slot on the rank after, walking the
    ring; then it closes the epoch, frees the window and returns its memory.
    Every slot has one writer, so the result is deterministic."""
    local = np.zeros(comm.size, dtype=np.int64)
    win = Window(comm, local)
    win.fence()
    for step in range(1, comm.size):
        peer = (comm.rank + step) % comm.size
        c = int(win.get(peer, comm.rank))
        win.put(peer, comm.rank, c + 1)
        win.fetch_and_op((peer + 1) % comm.size, comm.rank, step)
    win.fence(nosucceed=True)
    win.free()
    return local.tolist()
