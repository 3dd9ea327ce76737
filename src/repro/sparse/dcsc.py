"""Doubly compressed sparse columns — CombBLAS's hypersparse block format.

On a √p×√p grid each rank stores an (n₁/√p) × (n₂/√p) block holding only
~m/p nonzeros.  At scale, m/p ≪ n₂/√p: most columns of the block are empty,
and CSC's dense column-pointer array would cost O(n₂/√p) memory per rank —
asymptotically more than the data.  DCSC (Buluç & Gilbert) fixes this by
storing pointers only for the ``nzc`` non-empty columns:

* ``jc``  (len nzc)   — sorted ids of non-empty columns;
* ``cp``  (len nzc+1) — column pointers into ``ir``;
* ``ir``  (len nnz)   — row indices, sorted within each column.

Total memory O(nnz + nzc), independent of the block's column dimension.
The expand kernel (:meth:`DCSC.explode_cols`) intersects the incoming
frontier with ``jc`` by binary search (O(f log nzc)) and then reuses the
same ragged-gather as CSC.

For the direction-optimized (bottom-up) traversal each block also exposes a
**row-major mirror** (:meth:`DCSC.csr_mirror`): dense row pointers over the
block's rows plus column ids sorted ascending within each row.  The mirror
and the block's row-degree vector are built lazily on first use and cached,
so a pull pays no per-iteration rebuild.  The mirror costs O(block nrows +
nnz) words, the same order as the dense frontier bitmap the bottom-up step
replicates.  MCM-DIST's greedy initializer reads its proposals through the
mirror too (one lookahead cursor per row), so under the default ``init``
every rank builds it before the first phase — on a block no pull would
have touched, like the road core's, about nnz/p words more per rank.
"""

from __future__ import annotations

import numpy as np

from ..kernels import pull_candidates
from .coo import COO, decode_keys, sorted_keys
from .csc import ragged_gather


class DCSC:
    """Hypersparse pattern matrix block."""

    __slots__ = ("nrows", "ncols", "jc", "cp", "ir", "_csr", "_row_degrees")

    def __init__(self, nrows: int, ncols: int, jc: np.ndarray, cp: np.ndarray, ir: np.ndarray) -> None:
        self.nrows = int(nrows)
        self.ncols = int(ncols)
        self.jc = np.ascontiguousarray(jc, dtype=np.int64)
        self.cp = np.ascontiguousarray(cp, dtype=np.int64)
        self.ir = np.ascontiguousarray(ir, dtype=np.int64)
        if self.cp.size != self.jc.size + 1:
            raise ValueError("cp must have len(jc)+1 entries")
        if self.jc.size:
            if np.any(self.jc[1:] <= self.jc[:-1]):
                raise ValueError("jc must be strictly increasing")
            if self.jc[0] < 0 or self.jc[-1] >= self.ncols:
                raise ValueError("jc column id out of range")
            if np.any(np.diff(self.cp) <= 0):
                raise ValueError("every jc column must be non-empty")
        if self.cp.size and (self.cp[0] != 0 or self.cp[-1] != self.ir.size):
            raise ValueError("cp must start at 0 and end at nnz")
        if self.ir.size and (self.ir.min() < 0 or self.ir.max() >= self.nrows):
            raise ValueError("row index out of range")
        self._csr: "tuple[np.ndarray, np.ndarray] | None" = None
        self._row_degrees: "np.ndarray | None" = None

    # -- constructors -----------------------------------------------------------

    @classmethod
    def from_coo(cls, coo: COO) -> "DCSC":
        rows, cols = decode_keys(sorted_keys(*coo.shape, coo.rows, coo.cols), coo.nrows)
        # cols ascend: a column starts wherever it differs from its left
        starts = np.ones(cols.size + 1, dtype=bool)
        np.not_equal(cols[1:], cols[:-1], out=starts[1:-1])
        jc, cp = cols[starts[:-1]], np.flatnonzero(starts)
        return cls(coo.nrows, coo.ncols, jc, cp, rows)

    def to_coo(self) -> COO:
        cols = np.repeat(self.jc, np.diff(self.cp))
        return COO(self.nrows, self.ncols, self.ir.copy(), cols, dedup=False)

    # -- properties ---------------------------------------------------------------

    @property
    def nnz(self) -> int:
        return int(self.ir.size)

    @property
    def nzc(self) -> int:
        """Number of non-empty columns."""
        return int(self.jc.size)

    @property
    def shape(self) -> tuple[int, int]:
        return (self.nrows, self.ncols)

    def col_degrees(self) -> np.ndarray:
        """Degree of every block column, dense over the block's columns."""
        deg = np.zeros(self.ncols, dtype=np.int64)
        deg[self.jc] = np.diff(self.cp)
        return deg

    def row_degrees(self) -> np.ndarray:
        """Degree of every block row (cached; treat as read-only)."""
        if self._row_degrees is None:
            self._row_degrees = np.bincount(self.ir, minlength=self.nrows).astype(np.int64)
        return self._row_degrees

    def csr_mirror(self) -> tuple[np.ndarray, np.ndarray]:
        """Row-major mirror ``(row_ptr, col_idx)`` of the block (cached).

        ``row_ptr`` has ``nrows + 1`` entries (dense over the block's rows —
        the bottom-up pull scans arbitrary unvisited-row subsets, so sparse
        row compression would only add a search per lookup); ``col_idx``
        holds LOCAL column ids, ascending within each row.  Built lazily in
        one sort of the composite key ``row * ncols + column``
        (:func:`~repro.sparse.coo.sorted_keys` of the transpose) and the
        cached row degrees, then reused by every bottom-up SpMV and by
        greedy's cursor — no per-iteration rebuild.
        """
        if self._csr is None:
            row_ptr = np.zeros(self.nrows + 1, dtype=np.int64)
            np.cumsum(self.row_degrees(), out=row_ptr[1:])
            # Aᵀ's column-major key is A's row-major one, row·ncols + column
            key = sorted_keys(self.ncols, self.nrows, np.repeat(self.jc, np.diff(self.cp)), self.ir)
            # in place: every rank builds its mirror at once (greedy's start,
            # or its first pull), so a second nnz-word array adds up
            self._csr = (row_ptr, np.remainder(key, max(1, self.ncols), out=key))
        return self._csr

    def explode_rows(self, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Pull traversal: all (row, column) pairs adjacent to the given
        LOCAL rows, via the cached CSR mirror.  Columns ascend within each
        row, so downstream stable reductions tie-break by column exactly
        like the column-major explode does."""
        rows = np.asarray(rows, dtype=np.int64)
        row_ptr, col_idx = self.csr_mirror()
        cols, counts = ragged_gather(row_ptr, col_idx, rows)
        return np.repeat(rows, counts), cols

    def pull_rows(
        self, rows: np.ndarray, root_of: np.ndarray, null: int
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
        """The bottom-up pull over the cached CSR mirror: each of the given
        LOCAL rows stops at its first column on the frontier (``root_of[col]
        != null``) — its minimum, the minParent winner.  Returns ``(rows,
        cols, roots, edges read)``, one triple per row with a hit, rows in
        input order (:func:`repro.kernels.pull_candidates`)."""
        rows = np.asarray(rows, dtype=np.int64)
        row_ptr, col_idx = self.csr_mirror()
        return pull_candidates(row_ptr, col_idx, rows, root_of, null)

    # -- kernels ---------------------------------------------------------------

    def _locate(self, cols: np.ndarray) -> np.ndarray:
        """Positions of ``cols`` in ``jc``; -1 where the column is empty."""
        pos = np.searchsorted(self.jc, cols)
        pos_clamped = np.minimum(pos, max(0, self.jc.size - 1))
        hit = (pos < self.jc.size) & (self.jc[pos_clamped] == cols) if self.jc.size else np.zeros(cols.size, bool)
        out = np.where(hit, pos, -1)
        return out

    def explode_cols(
        self, cols: np.ndarray, parents: np.ndarray, roots: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The expand half of the block's SpMV: candidate (row, parent,
        root) triples for the frontier columns present in this block.
        ``cols`` are LOCAL column ids (any order), ``parents``/``roots``
        parallel value arrays carried to every emitted candidate row;
        columns absent from the block contribute nothing."""
        if cols.size == 0 or self.nzc == 0:
            e = np.empty(0, np.int64)
            return e, e.copy(), e.copy()
        loc = self._locate(np.asarray(cols, np.int64))
        hit = loc >= 0
        if not hit.any():
            e = np.empty(0, np.int64)
            return e, e.copy(), e.copy()
        rows, counts = ragged_gather(self.cp, self.ir, loc[hit])
        return rows, np.repeat(np.asarray(parents, np.int64)[hit], counts), np.repeat(
            np.asarray(roots, np.int64)[hit], counts
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"DCSC({self.nrows}x{self.ncols}, nnz={self.nnz}, nzc={self.nzc})"
