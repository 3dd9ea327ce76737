"""Compressed sparse column pattern matrices and the semiring SpMV kernel.

``CSC`` stores only the pattern (the paper's matrices are binary): column
pointers ``indptr`` (length ncols+1) and row indices ``indices`` sorted
within each column.  A cached transpose provides CSR-style row access where
algorithms need it (e.g. degree-based initializers).

The hot kernel is :meth:`CSC.spmv_frontier` — one step of alternating BFS:
``f_r = A · f_c`` over a ``(select2nd, ⊕)`` semiring.  It is work-efficient
(cost proportional to the nonzeros in the frontier's columns, not the whole
matrix) and fully vectorized:

1. *explode*: gather the adjacency of every frontier column into flat
   candidate arrays with a ragged-gather (no Python loop);
2. *reduce*: one winner per destination row via
   :func:`repro.sparse.semiring.reduce_candidates`.
"""

from __future__ import annotations

import numpy as np

from ..kernels import ragged_gather_flat
from .coo import COO, decode_keys, sorted_keys
from .semiring import SR_MIN_PARENT, Semiring, reduce_candidates
from .spvec import VertexFrontier


def ragged_gather(indptr: np.ndarray, indices: np.ndarray, cols: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Concatenate ``indices[indptr[c]:indptr[c+1]]`` for each c in ``cols``.

    Returns ``(gathered_indices, counts)`` where ``counts[k]`` is the length
    contributed by ``cols[k]``.  This is the vectorized replacement for the
    per-column Python loop — the single most important optimization in the
    library (every SpMV, every degree filter goes through it), and one of
    the three hot kernels of :mod:`repro.kernels`.
    """
    return ragged_gather_flat(indptr, indices, np.asarray(cols, dtype=np.int64))


class CSC:
    """Binary pattern matrix in compressed sparse column form."""

    __slots__ = ("nrows", "ncols", "indptr", "indices", "_transpose", "_row_degrees")

    def __init__(self, nrows: int, ncols: int, indptr: np.ndarray, indices: np.ndarray) -> None:
        self.nrows = int(nrows)
        self.ncols = int(ncols)
        self.indptr = np.ascontiguousarray(indptr, dtype=np.int64)
        self.indices = np.ascontiguousarray(indices, dtype=np.int64)
        if self.indptr.size != self.ncols + 1:
            raise ValueError(f"indptr length {self.indptr.size} != ncols+1 ({self.ncols + 1})")
        if self.indptr[0] != 0 or self.indptr[-1] != self.indices.size:
            raise ValueError("indptr must start at 0 and end at nnz")
        if np.any(self.indptr[1:] < self.indptr[:-1]):
            raise ValueError("indptr must be non-decreasing")
        if self.indices.size and (self.indices.min() < 0 or self.indices.max() >= self.nrows):
            raise ValueError("row index out of range")
        self._transpose: "CSC | None" = None
        self._row_degrees: "np.ndarray | None" = None

    # -- constructors -----------------------------------------------------------

    @classmethod
    def from_coo(cls, coo: COO) -> "CSC":
        rows, cols = decode_keys(sorted_keys(*coo.shape, coo.rows, coo.cols), coo.nrows)
        indptr = np.zeros(coo.ncols + 1, dtype=np.int64)
        np.cumsum(np.bincount(cols, minlength=coo.ncols), out=indptr[1:])
        return cls(coo.nrows, coo.ncols, indptr, rows)

    def to_coo(self) -> COO:
        cols = np.repeat(np.arange(self.ncols, dtype=np.int64), np.diff(self.indptr))
        return COO(self.nrows, self.ncols, self.indices.copy(), cols, dedup=False)

    # -- properties ---------------------------------------------------------------

    @property
    def nnz(self) -> int:
        return int(self.indices.size)

    @property
    def shape(self) -> tuple[int, int]:
        return (self.nrows, self.ncols)

    def col_degrees(self) -> np.ndarray:
        return np.diff(self.indptr)

    def row_degrees(self) -> np.ndarray:
        """Degree of every row (cached; treat the result as read-only)."""
        if self._row_degrees is None:
            self._row_degrees = np.bincount(self.indices, minlength=self.nrows).astype(np.int64)
        return self._row_degrees

    def column(self, j: int) -> np.ndarray:
        """Row indices of column ``j`` (a view, do not mutate)."""
        return self.indices[self.indptr[j]:self.indptr[j + 1]]

    def transpose(self) -> "CSC":
        """CSC of Aᵀ (equivalently, CSR row access to A).  Cached."""
        if self._transpose is None:
            self._transpose = CSC.from_coo(self.to_coo().transpose())
            self._transpose._transpose = self
        return self._transpose

    # -- kernels ---------------------------------------------------------------

    def explode_frontier(self, fc: VertexFrontier) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """The expand half of SpMV: candidate triples before reduction.

        Returns ``(cand_rows, cand_parents, cand_roots, counts)``; the new
        parent of a candidate row is the frontier *column index* itself (the
        select2nd semantics — see semiring module docstring), and the root is
        inherited from the column.  ``counts[k]`` is column k's contribution,
        which the distributed layer uses to split candidates by owner block.
        """
        cand_rows, counts = ragged_gather(self.indptr, self.indices, fc.idx)
        cand_parents = np.repeat(fc.idx, counts)
        cand_roots = np.repeat(fc.root, counts)
        return cand_rows, cand_parents, cand_roots, counts

    def spmv_frontier(
        self,
        fc: VertexFrontier,
        semiring: Semiring = SR_MIN_PARENT,
        rng: np.random.Generator | None = None,
    ) -> VertexFrontier:
        """One BFS step: ``f_r = A · f_c`` over the given semiring.

        The result's ``idx`` are the distinct rows adjacent to frontier
        columns; each carries the winning ``(parent, root)``.
        """
        cand_rows, cand_parents, cand_roots, _ = self.explode_frontier(fc)
        ridx, rpar, rroot = reduce_candidates(cand_rows, cand_parents, cand_roots, semiring, rng)
        return VertexFrontier(self.nrows, ridx, rpar, rroot)

    def spmv_count(self, fc: VertexFrontier) -> int:
        """Edge-operations one SpMV with this frontier performs (the model's
        F term): the nonzero count of the frontier's columns."""
        return int((self.indptr[fc.idx + 1] - self.indptr[fc.idx]).sum())

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"CSC({self.nrows}x{self.ncols}, nnz={self.nnz})"
