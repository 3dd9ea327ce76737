"""CombBLAS-lite: 2D-distributed sparse matrices and vectors (Section IV-A).

This package is the honest distributed-memory layer: objects here hold only
*rank-local* state (a DCSC block of the matrix, a contiguous slice of each
vector) and communicate exclusively through the
:class:`repro.runtime.Communicator` they were created on.  The same code
would run over mpi4py unchanged.

Data layout (exactly the paper's):

* the n₁×n₂ matrix lives on a ``pr × pc`` process grid; rank (i, j) stores
  the (n₁/pr)×(n₂/pc) block ``A_ij`` in DCSC;
* vectors are distributed over the *same* grid: a column vector is split
  into pc blocks (one per grid column), each block subdivided among the pr
  ranks of that grid column — so rank (i, j) owns one contiguous global
  range of every vector, and the "expand" of the 2D SpMV is an allgather
  along the grid column;
* row vectors mirror this with the roles of i and j swapped, making the
  "fold" an all-to-all along the grid row.

Modules: :mod:`~repro.distmat.grid` (process grid + sub-communicators),
:mod:`~repro.distmat.vecmap` (vector distribution maps),
:mod:`~repro.distmat.distvec` (dense/sparse distributed vectors),
:mod:`~repro.distmat.spmat` (block geometry, the root scatter, the
distributed pattern matrix),
:mod:`~repro.distmat.ops` (SpMV, INVERT, PRUNE and friends).
"""

from .grid import ProcGrid
from .vecmap import BlockMap, VecMap
from .distvec import DistDenseVec, DistVertexFrontier
from .spmat import DistBlockMatrix, DistSparseMatrix, scatter_edges
from . import ops

__all__ = [
    "BlockMap",
    "DistBlockMatrix",
    "DistDenseVec",
    "DistSparseMatrix",
    "DistVertexFrontier",
    "ProcGrid",
    "VecMap",
    "ops",
    "scatter_edges",
]
