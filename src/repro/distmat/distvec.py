"""Rank-local pieces of distributed vectors.

Every object stores only this rank's contiguous global range
``[lo, hi)`` of the vector.  Dense vectors hold a NumPy slice; sparse
VERTEX frontiers hold (global idx, parent, root) arrays confined to the
range; a :class:`BlockVec`'s range is a whole row (column) block,
replicated along its grid row (down its grid column).  Conversions
to/from global arrays exist for tests and for the root-side
scatter/gather at job boundaries.
"""

from __future__ import annotations

import numpy as np

from ..sparse.spvec import NULL
from .grid import ProcGrid
from .vecmap import BlockMap, VecMap


def make_vecmap(grid: ProcGrid, n: int, orient: str) -> VecMap:
    """Column vectors: blocks = grid columns, subs = grid rows; row vectors
    swap the roles."""
    if orient == "col":
        return VecMap(n, blocks=grid.pc, subs=grid.pr)
    if orient == "row":
        return VecMap(n, blocks=grid.pr, subs=grid.pc)
    raise ValueError(f"orient must be 'row' or 'col', got {orient!r}")


def my_subblock(grid: ProcGrid, orient: str) -> tuple[int, int]:
    """(sub, block) coordinates of this rank for the given orientation."""
    return (grid.i, grid.j) if orient == "col" else (grid.j, grid.i)


def owner_ranks(grid: ProcGrid, vmap: VecMap, orient: str, g: np.ndarray) -> np.ndarray:
    """Communicator rank owning each global vector index (vectorized)."""
    sub, block = vmap.owner(g)
    if orient == "col":
        return sub * grid.pc + block
    return block * grid.pc + sub


class DistDenseVec:
    """This rank's slice of a dense distributed vector."""

    def __init__(self, grid: ProcGrid, n: int, orient: str, fill: int = NULL) -> None:
        self.grid = grid
        self.orient = orient
        self.vmap = make_vecmap(grid, n, orient)
        sub, block = my_subblock(grid, orient)
        self.lo, self.hi = self.vmap.local_range(sub, block)
        self.local = np.full(self.hi - self.lo, fill, dtype=np.int64)

    @property
    def n(self) -> int:
        return self.vmap.n

    def owner_of(self, g: np.ndarray) -> np.ndarray:
        return owner_ranks(self.grid, self.vmap, self.orient, g)

    def get_local(self, g: np.ndarray) -> np.ndarray:
        """Read values at global indices that THIS rank owns."""
        return self.local[np.asarray(g, np.int64) - self.lo]

    def set_local(self, g: np.ndarray, values) -> None:
        """Write values at global indices that THIS rank owns."""
        self.local[np.asarray(g, np.int64) - self.lo] = values

    def assemble(self, pieces: "list[tuple[int, np.ndarray]]") -> np.ndarray:
        """The full vector from every rank's ``(lo, local)`` piece."""
        out = np.full(self.n, NULL, dtype=np.int64)
        for lo, arr in pieces:
            out[lo:lo + arr.size] = arr
        return out


class BlockVec:
    """One block of a vector, held whole by every rank that shares it: row
    block i along the pc ranks of grid row i (``orient="row"``, O(N/pr)
    words per rank), column block j down the pr ranks of grid column j
    (``orient="col"``, O(N/pc)).  Which copy of an entry is current is the
    caller's rule (MCM-DIST: a matched row's π at its *home*, the rank of
    grid row i sitting in its mate's column block; a free row's on every
    rank of the grid row)."""

    def __init__(self, grid: ProcGrid, n: int, orient: str = "row", fill: int = NULL) -> None:
        self.grid = grid
        self.orient = orient
        self.bmap = BlockMap(n, grid.pr if orient == "row" else grid.pc)
        self.lo, self.hi = self.bmap.range(grid.i if orient == "row" else grid.j)
        self.local = np.full(self.hi - self.lo, fill, dtype=np.int64)

    get_local = DistDenseVec.get_local
    set_local = DistDenseVec.set_local


class DistVertexFrontier:
    """This rank's entries of a sparse (parent, root) frontier.

    ``idx`` are GLOBAL vertex ids confined to this rank's range, kept
    sorted ascending; parent/root parallel arrays.
    """

    def __init__(self, grid: ProcGrid, n: int, orient: str,
                 idx=None, parent=None, root=None) -> None:
        self.grid = grid
        self.orient = orient
        self.vmap = make_vecmap(grid, n, orient)
        sub, block = my_subblock(grid, orient)
        self.lo, self.hi = self.vmap.local_range(sub, block)
        e = np.empty(0, np.int64)
        self.idx = e if idx is None else np.asarray(idx, np.int64)
        self.parent = e.copy() if parent is None else np.asarray(parent, np.int64)
        self.root = e.copy() if root is None else np.asarray(root, np.int64)
        if self.idx.size:
            if self.idx.min() < self.lo or self.idx.max() >= self.hi:
                raise ValueError(
                    f"frontier entries outside local range [{self.lo}, {self.hi})"
                )

    @property
    def n(self) -> int:
        return self.vmap.n

    def keep(self, mask: np.ndarray) -> "DistVertexFrontier":
        return DistVertexFrontier(
            self.grid, self.n, self.orient,
            self.idx[mask], self.parent[mask], self.root[mask],
        )
