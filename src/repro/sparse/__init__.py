"""Local sparse-matrix and sparse-vector kernels (the CombBLAS primitives).

Everything here is rank-local, NumPy-vectorized, and written from scratch:

* :class:`~repro.sparse.coo.COO` — edge-list builder/dedup/permutation stage;
* :class:`~repro.sparse.csc.CSC` — compressed sparse column pattern matrix
  with the semiring SpMV kernel at the heart of the paper's formulation;
* :class:`~repro.sparse.dcsc.DCSC` — doubly compressed sparse columns, the
  hypersparse format CombBLAS uses for the per-rank blocks of a 2D-partitioned
  matrix (a block holds ~m/p nonzeros over n/√p columns, so most columns are
  empty and CSC's O(n/√p) column pointers would dwarf the data);
* :class:`~repro.sparse.spvec.SparseVec` / :class:`~repro.sparse.spvec.VertexFrontier`
  — sparse vectors, the latter carrying the paper's ``(parent, root)``
  VERTEX pairs;
* :mod:`~repro.sparse.semiring` — the ``(select2nd, minParent)`` family of
  semirings from Section III-B;
* :mod:`~repro.sparse.primitives` — Table I's SELECT / SET / INVERT / PRUNE
  with exactly the paper's semantics (IND is a vector's ``idx``);
* :mod:`~repro.sparse.permute` — random load-balancing permutations
  (Section IV-A) and matching-to-permutation utilities;
* :mod:`~repro.sparse.mmio` — self-contained MatrixMarket reader.
"""

from .coo import COO
from .csc import CSC
from .dcsc import DCSC
from .spvec import SparseVec, VertexFrontier
from .semiring import Semiring, SR_MIN_PARENT, SR_MAX_PARENT, SR_RAND_PARENT, SR_MIN_ROOT, SR_RAND_ROOT
from . import primitives, permute, mmio

__all__ = [
    "COO",
    "CSC",
    "DCSC",
    "SR_MAX_PARENT",
    "SR_MIN_PARENT",
    "SR_MIN_ROOT",
    "SR_RAND_PARENT",
    "SR_RAND_ROOT",
    "Semiring",
    "SparseVec",
    "VertexFrontier",
    "mmio",
    "permute",
    "primitives",
]
