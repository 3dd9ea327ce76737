"""Coordinate-format edge lists: the construction/permutation stage.

A bipartite graph ``G = (R, C, E)`` is an ``n1 x n2`` binary pattern matrix
(Section II of the paper): rows are R-vertices, columns are C-vertices, and a
nonzero ``(i, j)`` is the edge between them.  :class:`COO` is the mutable
builder used by generators and I/O; algorithms run on :class:`~repro.sparse.csc.CSC`
or :class:`~repro.sparse.dcsc.DCSC` built from it.
"""

from __future__ import annotations

import numpy as np


class COO:
    """A deduplicated, binary (pattern-only) coordinate matrix."""

    __slots__ = ("nrows", "ncols", "rows", "cols")

    def __init__(self, nrows: int, ncols: int, rows: np.ndarray, cols: np.ndarray, *, dedup: bool = True) -> None:
        if nrows < 0 or ncols < 0:
            raise ValueError("matrix dimensions must be non-negative")
        rows = np.ascontiguousarray(rows, dtype=np.int64)
        cols = np.ascontiguousarray(cols, dtype=np.int64)
        if rows.shape != cols.shape or rows.ndim != 1:
            raise ValueError("rows/cols must be equal-length 1-D arrays")
        if rows.size:
            if rows.min() < 0 or rows.max() >= nrows:
                raise ValueError(f"row index out of range [0, {nrows})")
            if cols.min() < 0 or cols.max() >= ncols:
                raise ValueError(f"column index out of range [0, {ncols})")
        self.nrows = int(nrows)
        self.ncols = int(ncols)
        if dedup and rows.size:
            # Sort by (col, row) and drop duplicate edges.
            order = np.lexsort((rows, cols))
            rows, cols = rows[order], cols[order]
            # dead from here: free it before the compress below allocates
            # two more nnz-sized arrays (one of them then reuses its slot)
            del order
            keep = np.empty(rows.size, dtype=bool)
            keep[0] = True
            np.not_equal(rows[1:], rows[:-1], out=keep[1:])
            keep[1:] |= cols[1:] != cols[:-1]
            rows, cols = rows[keep], cols[keep]
        self.rows = rows
        self.cols = cols

    # -- constructors ---------------------------------------------------------

    @classmethod
    def empty(cls, nrows: int, ncols: int) -> "COO":
        return cls(nrows, ncols, np.empty(0, np.int64), np.empty(0, np.int64))

    # -- properties ------------------------------------------------------------

    @property
    def nnz(self) -> int:
        return int(self.rows.size)

    @property
    def shape(self) -> tuple[int, int]:
        return (self.nrows, self.ncols)

    def row_degrees(self) -> np.ndarray:
        return np.bincount(self.rows, minlength=self.nrows).astype(np.int64)

    def col_degrees(self) -> np.ndarray:
        return np.bincount(self.cols, minlength=self.ncols).astype(np.int64)

    # -- transformations --------------------------------------------------------

    def transpose(self) -> "COO":
        return COO(self.ncols, self.nrows, self.cols.copy(), self.rows.copy(), dedup=False)

    def permuted(self, row_perm: np.ndarray | None = None, col_perm: np.ndarray | None = None) -> "COO":
        """Relabel vertices: new row index of old row i is ``row_perm[i]``.

        The paper randomly permutes inputs "to balance load across
        processors" (Section IV-A); see :mod:`repro.sparse.permute`.
        """
        rows = self.rows if row_perm is None else np.asarray(row_perm, np.int64)[self.rows]
        cols = self.cols if col_perm is None else np.asarray(col_perm, np.int64)[self.cols]
        return COO(self.nrows, self.ncols, rows, cols, dedup=False)

    def block(self, r0: int, r1: int, c0: int, c1: int) -> "COO":
        """Extract the submatrix [r0:r1) x [c0:c1) with local indices —
        the per-rank block of the 2D distribution."""
        mask = (self.rows >= r0) & (self.rows < r1) & (self.cols >= c0) & (self.cols < c1)
        return COO(r1 - r0, c1 - c0, self.rows[mask] - r0, self.cols[mask] - c0, dedup=False)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, COO):
            return NotImplemented
        if self.shape != other.shape or self.nnz != other.nnz:
            return False
        a = np.lexsort((self.rows, self.cols))
        b = np.lexsort((other.rows, other.cols))
        return bool(
            np.array_equal(self.rows[a], other.rows[b])
            and np.array_equal(self.cols[a], other.cols[b])
        )

    # a mutable value type: equal matrices must not hash apart
    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"COO({self.nrows}x{self.ncols}, nnz={self.nnz})"
