"""Distribution maps: which rank owns which slice of a matrix dimension or
vector.

Two layers:

* :class:`BlockMap` — a 1-D uniform block partition of ``n`` items into
  ``parts`` blocks of size ⌈n/parts⌉ (the last block ragged, possibly
  empty).  Used for the matrix's row blocks (pr parts) and column blocks
  (pc parts).
* :class:`VecMap` — the paper's 2-D vector distribution: the vector is
  first block-partitioned across one grid dimension (its *blocks*) and each
  block is sub-partitioned across the other dimension, so all pr·pc ranks
  own a contiguous global range.  Column vectors use (blocks=pc, subs=pr)
  with rank (i, j) owning sub-chunk i of block j; row vectors swap roles.
"""

from __future__ import annotations

import numpy as np


def _ceil_div(a: int, b: int) -> int:
    return -(-a // b)


class BlockMap:
    """Uniform block partition of ``[0, n)`` into ``parts`` blocks."""

    def __init__(self, n: int, parts: int) -> None:
        if parts < 1:
            raise ValueError("parts must be >= 1")
        self.n = int(n)
        self.parts = int(parts)
        self.bs = max(1, _ceil_div(self.n, self.parts))

    def owner(self, g: "int | np.ndarray") -> "int | np.ndarray":
        """Block index owning global index ``g``."""
        return np.minimum(np.asarray(g) // self.bs, self.parts - 1) if isinstance(g, np.ndarray) else min(int(g) // self.bs, self.parts - 1)

    def range(self, part: int) -> tuple[int, int]:
        """Global [lo, hi) of one block (empty when lo >= n)."""
        lo = min(part * self.bs, self.n)
        hi = min((part + 1) * self.bs, self.n)
        return lo, hi

    def size(self, part: int) -> int:
        lo, hi = self.range(part)
        return hi - lo


class VecMap:
    """2-D distribution of a length-``n`` vector on a pr × pc grid.

    Parameters
    ----------
    n:
        Vector length.
    blocks:
        Number of primary blocks (pc for a column vector, pr for a row
        vector).
    subs:
        Sub-chunks per block (pr for a column vector, pc for a row vector).

    Rank identification is by ``(sub, block)`` pair; the caller maps that to
    grid coordinates (for a column vector ``sub`` is the grid row i and
    ``block`` the grid column j; for a row vector vice versa).
    """

    def __init__(self, n: int, blocks: int, subs: int) -> None:
        self.n = int(n)
        self.blocks = int(blocks)
        self.subs = int(subs)
        self.bmap = BlockMap(n, blocks)
        self.sub_bs = max(1, _ceil_div(self.bmap.bs, subs))

    def owner(self, g: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(sub, block) owner of each global index (vectorized)."""
        g = np.asarray(g, dtype=np.int64)
        block = np.minimum(g // self.bmap.bs, self.blocks - 1)
        off = g - block * self.bmap.bs
        sub = np.minimum(off // self.sub_bs, self.subs - 1)
        return sub, block

    def local_range(self, sub: int, block: int) -> tuple[int, int]:
        """Contiguous global [lo, hi) owned by rank (sub, block)."""
        blo, bhi = self.bmap.range(block)
        lo = min(blo + sub * self.sub_bs, bhi)
        hi = min(blo + (sub + 1) * self.sub_bs, bhi)
        return lo, hi
