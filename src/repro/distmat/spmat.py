"""The 2D-distributed sparse matrix: block geometry, the root scatter, and
the pattern matrix with one DCSC block per rank."""

from __future__ import annotations

import numpy as np

from ..runtime.pack import wire_dtype
from ..sparse.coo import COO
from ..sparse.dcsc import DCSC
from .distvec import make_vecmap
from .grid import ProcGrid
from .vecmap import BlockMap


class DistBlockMatrix:
    """The block geometry of an n₁ × n₂ matrix on a pr × pc grid — what
    every engine's matrix shares, whatever it stores in its block.

    Rank (i, j) owns rows ``rowmap.range(i)`` = ``[row_lo, row_hi)`` and
    columns ``colmap.range(j)`` = ``[col_lo, col_hi)``; ``nnz`` is the
    whole matrix's edge count, known on every rank.  The row- and
    column-vector distribution maps are built once here and cached
    (``row_vecmap``/``col_vecmap``) — every SpMV fold and INVERT reuses
    them instead of rebuilding per call.
    """

    def __init__(self, grid: ProcGrid, nrows: int, ncols: int, nnz: int) -> None:
        self.grid = grid
        self.nrows = int(nrows)
        self.ncols = int(ncols)
        self.nnz = int(nnz)
        self.rowmap = BlockMap(nrows, grid.pr)
        self.colmap = BlockMap(ncols, grid.pc)
        self.row_lo, self.row_hi = self.rowmap.range(grid.i)
        self.col_lo, self.col_hi = self.colmap.range(grid.j)
        self.row_vecmap = make_vecmap(grid, nrows, "row")
        self.col_vecmap = make_vecmap(grid, ncols, "col")

    @property
    def block_shape(self) -> tuple[int, int]:
        """(rows, columns) of this rank's block."""
        return self.row_hi - self.row_lo, self.col_hi - self.col_lo


def scatter_edges(
    grid: ProcGrid, coo: "COO | None", *values: np.ndarray, root: int = 0
) -> tuple:
    """Collective: partition the edges ``root`` holds by owner block and
    scatter them, together with any per-edge ``values`` arrays (``root``
    supplies ``coo`` and ``values``; every other rank passes ``None`` and
    nothing).  Returns ``(geometry, rows, cols, *values)``: the
    :class:`DistBlockMatrix` of the matrix's shape and this rank's edges
    with BLOCK-LOCAL indices, each value array aligned with its edges.

    The shape and the edge count ride every piece: three header words, no
    broadcast.
    """
    comm = grid.comm
    if comm.rank == root:
        if coo is None:
            raise ValueError("root must supply the matrix")
        if any(v.size != coo.rows.size for v in values):
            raise ValueError("value arrays need one entry per edge")
        dest = BlockMap(coo.nrows, grid.pr).owner(coo.rows)
        dest *= grid.pc
        dest += BlockMap(coo.ncols, grid.pc).owner(coo.cols)
        dest = dest.astype(np.min_scalar_type(comm.size - 1))
        # each piece in input order, its ids narrowed as it is cut out (one
        # scan each, to the width the wire would give them): a permutation
        # of all edges and the pieces at full width, held together, left
        # their freed pages resident under the blocks built next (the bulk
        # job's peak rose 170 → 181 MiB in half the cold runs)
        payloads = []
        for r in range(comm.size):
            edges = np.flatnonzero(dest == r)
            ids = (coo.rows[edges], coo.cols[edges])
            payloads.append((coo.nrows, coo.ncols, coo.nnz,
                             *(a.astype(wire_dtype(a)) for a in ids),
                             *(v[edges] for v in values)))
            del edges, ids
        del dest
    else:
        payloads = None
    nrows, ncols, nnz, rows, cols, *mine = comm.scatter(payloads, root=root)
    del payloads
    geom = DistBlockMatrix(grid, nrows, ncols, nnz)
    # widened straight into block-local int64: one allocation per array
    return (geom, np.subtract(rows, geom.row_lo, dtype=np.int64),
            np.subtract(cols, geom.col_lo, dtype=np.int64), *mine)


class DistSparseMatrix(DistBlockMatrix):
    """Rank-local view of an n₁ × n₂ pattern matrix on a pr × pc grid.

    Rank (i, j) stores block ``A_ij`` (rows ``rowmap.range(i)``, columns
    ``colmap.range(j)``) as a DCSC with *local* indices.  Construction is a
    root scatter (:func:`scatter_edges`): rank 0 holds the COO, every other
    rank contributes ``None``.
    """

    def __init__(self, grid: ProcGrid, nrows: int, ncols: int, nnz: int, block: DCSC) -> None:
        super().__init__(grid, nrows, ncols, nnz)
        self.block = block

    # -- construction ------------------------------------------------------------

    @classmethod
    def scatter_from_root(
        cls, grid: ProcGrid, coo: "COO | None", root: int = 0
    ) -> "DistSparseMatrix":
        """Collective: distribute a COO held by ``root`` over the grid."""
        geom, rows, cols = scatter_edges(grid, coo, root=root)
        local = COO(*geom.block_shape, rows, cols, dedup=False)
        return cls(grid, geom.nrows, geom.ncols, geom.nnz, DCSC.from_coo(local))

    # -- properties ---------------------------------------------------------------

    @property
    def local_nnz(self) -> int:
        return self.block.nnz

    def gather_to_root(self, root: int = 0) -> "COO | None":
        """Collective: reassemble the global COO at ``root`` (the expensive
        operation Fig. 9 warns about; also the test oracle's round-trip)."""
        local = self.block.to_coo()
        payload = (local.rows + self.row_lo, local.cols + self.col_lo)
        pieces = self.grid.comm.gather(payload, root=root)
        if pieces is None:
            return None
        rows = np.concatenate([p[0] for p in pieces])
        cols = np.concatenate([p[1] for p in pieces])
        return COO(self.nrows, self.ncols, rows, cols, dedup=False)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"DistSparseMatrix({self.nrows}x{self.ncols} on "
            f"{self.grid.pr}x{self.grid.pc}, local nnz={self.local_nnz})"
        )
