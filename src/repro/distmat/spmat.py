"""The 2D-distributed sparse matrix: one DCSC block per rank."""

from __future__ import annotations

import numpy as np

from ..sparse.coo import COO
from ..sparse.dcsc import DCSC
from .distvec import make_vecmap
from .grid import ProcGrid
from .vecmap import BlockMap


class DistSparseMatrix:
    """Rank-local view of an n₁ × n₂ matrix on a pr × pc grid.

    Rank (i, j) stores block ``A_ij`` (rows ``rowmap.range(i)``, columns
    ``colmap.range(j)``) as a DCSC with *local* indices.  Construction is a
    root scatter: rank 0 holds the COO, partitions it by owner block and
    scatters; every other rank contributes ``None``.

    The row- and column-vector distribution maps are built once here and
    cached (``row_vecmap``/``col_vecmap``) — every SpMV fold and INVERT
    reuses them instead of rebuilding per call.
    """

    def __init__(self, grid: ProcGrid, nrows: int, ncols: int, block: DCSC) -> None:
        self.grid = grid
        self.nrows = int(nrows)
        self.ncols = int(ncols)
        self.rowmap = BlockMap(nrows, grid.pr)
        self.colmap = BlockMap(ncols, grid.pc)
        self.block = block
        self.row_lo, self.row_hi = self.rowmap.range(grid.i)
        self.col_lo, self.col_hi = self.colmap.range(grid.j)
        self.row_vecmap = make_vecmap(grid, nrows, "row")
        self.col_vecmap = make_vecmap(grid, ncols, "col")
        self._degree_blocks: "tuple[np.ndarray, np.ndarray] | None" = None

    # -- construction ------------------------------------------------------------

    @classmethod
    def scatter_from_root(
        cls, grid: ProcGrid, coo: "COO | None", root: int = 0
    ) -> "DistSparseMatrix":
        """Collective: distribute a COO held by ``root`` over the grid."""
        comm = grid.comm
        if comm.rank == root:
            assert coo is not None, "root must supply the matrix"
            shape = (coo.nrows, coo.ncols)
        else:
            shape = None
        nrows, ncols = comm.bcast(shape, root=root)
        rowmap = BlockMap(nrows, grid.pr)
        colmap = BlockMap(ncols, grid.pc)

        if comm.rank == root:
            bi = np.minimum(coo.rows // rowmap.bs, grid.pr - 1)
            bj = np.minimum(coo.cols // colmap.bs, grid.pc - 1)
            dest = bi * grid.pc + bj
            order = np.argsort(dest, kind="stable")
            rows_s, cols_s, dest_s = coo.rows[order], coo.cols[order], dest[order]
            cuts = np.searchsorted(dest_s, np.arange(comm.size + 1))
            payloads = [
                (rows_s[cuts[r]:cuts[r + 1]], cols_s[cuts[r]:cuts[r + 1]])
                for r in range(comm.size)
            ]
            # five dead nnz-sized arrays: drop them before the scatter — a
            # piece is on the fabric when its send returns, so peers build
            # their blocks while the root still copies the later pieces
            del bi, bj, dest, order, dest_s
        else:
            payloads = None
        my_rows, my_cols = comm.scatter(payloads, root=root)
        if comm.rank == root:
            # two more: drop them before the root builds its own block on
            # top of them (the job's peak-memory moment)
            del rows_s, cols_s, payloads

        # localize indices and build the DCSC block
        rlo, rhi = rowmap.range(grid.i)
        clo, chi = colmap.range(grid.j)
        local = COO(
            max(0, rhi - rlo), max(0, chi - clo),
            my_rows - rlo, my_cols - clo, dedup=False,
        )
        return cls(grid, nrows, ncols, DCSC.from_coo(local))

    # -- properties ---------------------------------------------------------------

    @property
    def local_nnz(self) -> int:
        return self.block.nnz

    def global_nnz(self) -> int:
        """Collective: total nonzeros across the grid."""
        from ..runtime.comm import SUM

        return int(self.grid.comm.allreduce(self.local_nnz, op=SUM))

    def degree_blocks(self) -> tuple[np.ndarray, np.ndarray]:
        """Full-matrix (row, column) degrees of this rank's row block and
        column block — the O(1)-lookup inputs of the direction-optimization
        switch rule, replicated along the grid row / down the grid column.

        COLLECTIVE on first call (one allreduce along each of rowcomm and
        colcomm, summing the per-block degree contributions), then cached.
        Every rank must reach the first call at the same program point —
        :func:`repro.matching.mcm_dist.mcm_dist_spmd` does so before its
        phase loop.  Treat the returned arrays as read-only.
        """
        if self._degree_blocks is None:
            from ..runtime.comm import SUM

            grid, blk = self.grid, self.block
            degc_loc = np.zeros(blk.ncols, dtype=np.int64)
            if blk.nzc:
                degc_loc[blk.jc] = np.diff(blk.cp)
            self._degree_blocks = (
                grid.rowcomm.allreduce(blk.row_degrees(), op=SUM),
                grid.colcomm.allreduce(degc_loc, op=SUM),
            )
        return self._degree_blocks

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
