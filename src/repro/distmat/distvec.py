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
        #: per rank, where this vector's slice starts in the rank's exposed
        #: memory (all zero until :func:`share_buffer` packs it)
        self._section = [0] * grid.nprocs

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

    def remote_location(self, g: int) -> tuple[int, int]:
        """(owner rank, offset in the owner's exposed memory) of one global
        index — the addressing step of every one-sided RMA access in
        path-parallel augmentation.  The offset is local to the owner's
        slice unless :func:`share_buffer` laid this vector behind others."""
        sub, block = self.vmap.owner(np.int64(g))
        rank = (
            int(sub) * self.grid.pc + int(block)
            if self.orient == "col"
            else int(block) * self.grid.pc + int(sub)
        )
        lo, _hi = self.vmap.local_range(int(sub), int(block))
        return rank, self._section[rank] + int(g) - lo

    def size_on(self, rank: int) -> int:
        """Length of ``rank``'s slice (what :func:`share_buffer` lays out)."""
        i, j = divmod(rank, self.grid.pc)
        return self.vmap.local_size(*((i, j) if self.orient == "col" else (j, i)))

    def to_global(self) -> np.ndarray:
        """Gather the full vector on every rank (collective)."""
        return self.assemble(self.grid.comm.allgather((self.lo, self.local)))

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
        self._section = [0] * grid.nprocs

    get_local = DistDenseVec.get_local
    set_local = DistDenseVec.set_local

    def size_on(self, rank: int) -> int:
        i, j = divmod(rank, self.grid.pc)
        return self.bmap.size(i if self.orient == "row" else j)

    def remote_location(self, g: int, j: int) -> tuple[int, int]:
        """(rank, offset in its exposed memory) of a row block vector's
        index ``g``, the copy in grid column ``j``."""
        i = self.bmap.owner(int(g))
        rank = i * self.grid.pc + j
        return rank, self._section[rank] + int(g) - self.bmap.range(i)[0]


def share_buffer(*vecs: "DistDenseVec | BlockVec") -> np.ndarray:
    """Re-home the local slices of ``vecs`` end to end in ONE int64 buffer
    per rank and return it — the memory a single RMA window exposes.  Each
    ``vec.local`` becomes a view of its section (contents kept, every
    in-place store lands in the buffer) and ``remote_location`` adds the
    section's offset on the owner rank, which every rank can compute: a
    section starts where the owner's slices of the vectors before it end."""
    grid = vecs[0].grid
    buf = np.concatenate([v.local for v in vecs])
    starts = [0] * grid.nprocs
    at = 0
    for v in vecs:
        v.local = buf[at:at + v.local.size]
        at += v.local.size
        v._section = list(starts)
        for rank in range(grid.nprocs):
            starts[rank] += v.size_on(rank)
    return buf


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
