"""Table I primitives with the paper's exact serial semantics.

These are the building blocks Algorithm 2 and Algorithm 3 are written in.
Each function documents its correspondence to the paper's table:

==========  =====================================================  ==============
function     semantics                                              complexity
==========  =====================================================  ==============
IND          indices of the nonzero entries: ``SparseVec.idx``      O(1)
SELECT       keep entries of x where expr(y[idx]) holds             O(nnz(x))
SET          dense[idx] = value for each sparse entry               O(nnz(x))
INVERT       swap indices and values; first index wins on ties      O(nnz(x))
PRUNE        drop entries of x whose value occurs among q's values  O(sort)
==========  =====================================================  ==============

Dense vectors are plain int64 NumPy arrays with -1 as the missing value.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from .spvec import SparseVec


def select(x: SparseVec, y: np.ndarray, expr: Callable[[np.ndarray], np.ndarray]) -> SparseVec:
    """SELECT: keep the entries of sparse ``x`` whose positions satisfy a
    predicate on dense ``y`` (Table I row 2).

    ``expr`` receives ``y[x.idx]`` and must return a boolean array; only the
    sparse entries are touched — complexity O(nnz(x)), never O(len(y)).
    """
    if y.shape[0] != x.n:
        raise ValueError(f"dense vector length {y.shape[0]} != sparse length {x.n}")
    if x.nnz == 0:
        return SparseVec.empty(x.n)
    mask = np.asarray(expr(y[x.idx]), dtype=bool)
    return SparseVec(x.n, x.idx[mask], x.val[mask])


def set_dense(y: np.ndarray, x: SparseVec) -> np.ndarray:
    """SET: overwrite dense ``y`` at ``x``'s indices with ``x``'s values
    (Table I row 3).  In-place; returns ``y`` for chaining."""
    if y.shape[0] != x.n:
        raise ValueError(f"dense vector length {y.shape[0]} != sparse length {x.n}")
    y[x.idx] = x.val
    return y


def invert(x: SparseVec, length: int | None = None) -> SparseVec:
    """INVERT: swap the indices and values of ``x`` (Table I row 4).

    ``z[x[i]] = i``; when several entries share a value, the smallest index
    wins ("we keep the first index").  ``length`` sets the output vector's
    length (defaults to ``x.n``, valid when max value < len).
    """
    length = x.n if length is None else int(length)
    if x.nnz == 0:
        return SparseVec.empty(length)
    if x.val.min() < 0 or x.val.max() >= length:
        raise ValueError(
            f"INVERT requires values in [0, {length}); got [{x.val.min()}, {x.val.max()}]"
        )
    # np.unique returns, for each distinct value, the index of its first
    # occurrence in the input — exactly the paper's tie-break.
    new_idx, first_pos = np.unique(x.val, return_index=True)
    return SparseVec(length, new_idx, x.idx[first_pos])


def prune(x: SparseVec, q: SparseVec) -> SparseVec:
    """PRUNE: remove the entries of ``x`` whose *value* occurs among the
    *values* of ``q`` (Table I row 5).

    The paper bounds this by min(sort(ψ)+μ·logψ, sort(μ)+ψ·logμ); NumPy's
    ``isin`` performs the same sort + binary-search strategy internally.
    """
    if q.nnz == 0 or x.nnz == 0:
        return x.copy()
    keep = ~np.isin(x.val, q.val)
    return SparseVec(x.n, x.idx[keep], x.val[keep])
