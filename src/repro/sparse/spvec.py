"""Sparse vectors and the (parent, root) VERTEX frontier.

Two vector kinds appear in the paper's formulation (Section III-B):

* plain sparse vectors of integers — ``SparseVec`` — used by AUGMENT and the
  maximal-matching initializers;
* sparse vectors of VERTEX ``(parent, root)`` pairs — ``VertexFrontier`` —
  the BFS frontiers ``f_c`` / ``f_r``.  ``PARENT(x)`` and ``ROOT(x)`` of the
  paper are the ``.parent`` / ``.root`` attribute arrays here.

Dense vectors (``mate_r``, ``mate_c``, ``π_r``, ``path_c``) are ordinary
NumPy int64 arrays where ``-1`` denotes a missing value, exactly as in
Algorithm 2's description.

Invariant: ``idx`` is strictly increasing.  All primitive implementations
preserve it, which keeps merges and searches O(nnz) or O(nnz log nnz).
"""

from __future__ import annotations

import numpy as np

NULL = -1  # the paper's "-1 denotes unmatched/unvisited/missing"


def _as_index_array(idx: np.ndarray) -> np.ndarray:
    idx = np.ascontiguousarray(idx, dtype=np.int64)
    if idx.ndim != 1:
        raise ValueError("index array must be 1-D")
    if idx.size > 1 and np.any(idx[1:] <= idx[:-1]):
        raise ValueError("sparse vector indices must be strictly increasing")
    if idx.size and idx[0] < 0:
        raise ValueError("sparse vector indices must be non-negative")
    return idx


class SparseVec:
    """A length-``n`` sparse vector of int64 values.

    Unlike the dense representation, only the ``nnz`` stored entries exist;
    a stored value may legitimately be any integer (including -1 after a SET
    with missing values — callers filter as needed).
    """

    __slots__ = ("n", "idx", "val")

    def __init__(self, n: int, idx: np.ndarray, val: np.ndarray) -> None:
        self.n = int(n)
        self.idx = _as_index_array(idx)
        self.val = np.ascontiguousarray(val, dtype=np.int64)
        if self.val.shape != self.idx.shape:
            raise ValueError("idx and val must have equal length")
        if self.idx.size and self.idx[-1] >= self.n:
            raise ValueError(f"index {self.idx[-1]} out of range for length {self.n}")

    @classmethod
    def empty(cls, n: int) -> "SparseVec":
        return cls(n, np.empty(0, np.int64), np.empty(0, np.int64))

    @property
    def nnz(self) -> int:
        return int(self.idx.size)

    def copy(self) -> "SparseVec":
        return SparseVec(self.n, self.idx.copy(), self.val.copy())

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SparseVec):
            return NotImplemented
        return (
            self.n == other.n
            and np.array_equal(self.idx, other.idx)
            and np.array_equal(self.val, other.val)
        )

    # a mutable value type: equal vectors must not hash apart
    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"SparseVec(n={self.n}, nnz={self.nnz})"


class VertexFrontier:
    """A sparse vector of VERTEX ``(parent, root)`` pairs (Section III-B).

    ``idx[k]`` is a vertex currently on the frontier, ``parent[k]`` its BFS
    parent on the other side of the bipartition, and ``root[k]`` the
    unmatched column vertex whose alternating tree it belongs to.  In the
    first iteration of a phase parent == root == idx (the paper: "parent and
    root of a vertex are set to itself").
    """

    __slots__ = ("n", "idx", "parent", "root")

    def __init__(self, n: int, idx: np.ndarray, parent: np.ndarray, root: np.ndarray) -> None:
        self.n = int(n)
        self.idx = _as_index_array(idx)
        self.parent = np.ascontiguousarray(parent, dtype=np.int64)
        self.root = np.ascontiguousarray(root, dtype=np.int64)
        if self.parent.shape != self.idx.shape or self.root.shape != self.idx.shape:
            raise ValueError("idx/parent/root must have equal length")
        if self.idx.size and self.idx[-1] >= self.n:
            raise ValueError(f"index {self.idx[-1]} out of range for length {self.n}")

    @classmethod
    def empty(cls, n: int) -> "VertexFrontier":
        e = np.empty(0, np.int64)
        return cls(n, e, e.copy(), e.copy())

    @classmethod
    def roots_of_self(cls, n: int, idx: np.ndarray) -> "VertexFrontier":
        """The initial column frontier: every entry is its own parent and
        root (Algorithm 2, line 8)."""
        idx = _as_index_array(idx)
        return cls(n, idx, idx.copy(), idx.copy())

    @property
    def nnz(self) -> int:
        return int(self.idx.size)

    def keep(self, mask: np.ndarray) -> "VertexFrontier":
        """Subset by boolean mask over stored entries (order preserved)."""
        return VertexFrontier(self.n, self.idx[mask], self.parent[mask], self.root[mask])

    def copy(self) -> "VertexFrontier":
        return VertexFrontier(self.n, self.idx.copy(), self.parent.copy(), self.root.copy())

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"VertexFrontier(n={self.n}, nnz={self.nnz})"
