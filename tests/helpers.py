"""Builders and readers the tests share; nothing in ``src/`` needs them."""

from __future__ import annotations

import numpy as np

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
