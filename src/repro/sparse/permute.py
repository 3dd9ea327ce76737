"""Vertex permutations: load balancing and matching-based reordering.

Two uses in the paper's pipeline:

* *load balancing* (Section IV-A): "we randomly permute the input matrix A
  before running the matching algorithms" so nonzeros spread evenly over the
  2D grid — :func:`random_permutation` / :func:`randomly_permuted`, and the
  structure-keyed :func:`signature_permuted` MCM-DIST applies to its input;
* *the application* (Section I): matchings permute a sparse linear system to
  a zero-free diagonal before factorization — :func:`matching_to_permutation`
  builds that row permutation from a perfect/maximum matching.
"""

from __future__ import annotations

import numpy as np

from .coo import COO
from .spvec import NULL


def random_permutation(n: int, rng: np.random.Generator) -> np.ndarray:
    """A uniformly random permutation as a relabeling array: new id of old
    vertex i is ``perm[i]``."""
    return rng.permutation(n).astype(np.int64)


def inverse_permutation(perm: np.ndarray) -> np.ndarray:
    """``inv[perm[i]] = i``."""
    perm = np.asarray(perm, dtype=np.int64)
    inv = np.empty_like(perm)
    inv[perm] = np.arange(perm.size, dtype=np.int64)
    return inv


def randomly_permuted(coo: COO, rng: np.random.Generator) -> tuple[COO, np.ndarray, np.ndarray]:
    """Randomly relabel both vertex sides for 2D load balance.

    Returns ``(permuted matrix, row_perm, col_perm)`` so callers can map a
    matching computed on the permuted matrix back to original labels with
    :func:`unpermute_matching`.
    """
    rp = random_permutation(coo.nrows, rng)
    cp = random_permutation(coo.ncols, rng)
    return coo.permuted(rp, cp), rp, cp


_M1 = np.uint64(0x9E3779B97F4A7C15)
_M2 = np.uint64(0xBF58476D1CE4E5B9)
_M3 = np.uint64(0x94D049BB133111EB)


def _mix(x: np.ndarray) -> np.ndarray:
    """SplitMix64's finalizer, elementwise (uint64 arithmetic wraps)."""
    x = x.astype(np.uint64) + _M1
    x = (x ^ (x >> np.uint64(30))) * _M2
    x = (x ^ (x >> np.uint64(27))) * _M3
    return x ^ (x >> np.uint64(31))


def signature_permutation(
    n: int, own: np.ndarray, other: np.ndarray, n_other: int, seed: int
) -> np.ndarray:
    """A pseudo-random relabeling of one vertex side, keyed by structure.

    ``own``/``other`` are the edge endpoints on this side and the other.  A
    vertex's *signature* hashes its degree with the multiset of its
    neighbours' degrees; its key hashes the signature, its rank among the
    vertices sharing that signature (in id order) and ``seed``; the new ids
    follow the keys.  Locality is gone as under :func:`random_permutation`
    (consecutive vertices of one signature get unrelated keys), but the
    result depends on the ids only through the order within each signature
    class: any relabeling of the input that keeps that order relabels to the
    same matrix.  Splicing isolated edges — whose signature no vertex of a
    larger component shares — into the id sequence is one.
    """
    deg = np.bincount(own, minlength=n)
    # 20-bit neighbour hashes: the float64 sums are exact below 2**33 edges
    # per vertex, so the signature does not depend on the summation order
    h = (_mix(np.bincount(other, minlength=n_other)) >> np.uint64(44)).astype(np.float64)
    sig = _mix(_mix(deg) ^ np.bincount(own, weights=h[other], minlength=n).astype(np.uint64))
    order = np.argsort(sig, kind="stable")
    ids = np.arange(n, dtype=np.int64)
    first = np.ones(n, dtype=bool)
    first[1:] = sig[order[1:]] != sig[order[:-1]]
    rank = np.empty(n, dtype=np.int64)
    rank[order] = ids - np.maximum.accumulate(np.where(first, ids, 0))
    key = _mix(sig ^ _mix(rank.astype(np.uint64) ^ np.uint64(seed)))
    perm = np.empty(n, dtype=np.int64)
    perm[np.argsort(key, kind="stable")] = ids
    return perm


def signature_permuted(coo: COO, seed: int) -> tuple[COO, np.ndarray, np.ndarray]:
    """Relabel both vertex sides with :func:`signature_permutation`.

    Same contract as :func:`randomly_permuted`: ``(permuted matrix,
    row_perm, col_perm)``, mapped back with :func:`unpermute_matching`.
    """
    rp = signature_permutation(coo.nrows, coo.rows, coo.cols, coo.ncols, seed)
    cp = signature_permutation(coo.ncols, coo.cols, coo.rows, coo.nrows, seed + 1)
    return coo.permuted(rp, cp), rp, cp


def unpermute_matching(
    mate_r: np.ndarray,
    mate_c: np.ndarray,
    row_perm: np.ndarray,
    col_perm: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Map mate vectors computed on a permuted matrix back to original ids.

    If new row ``row_perm[i]`` is matched to new column j, then original row
    i is matched to original column ``inv_col[j]``.
    """
    inv_c = inverse_permutation(col_perm)
    inv_r = inverse_permutation(row_perm)
    out_r = np.full(mate_r.size, NULL, dtype=np.int64)
    out_c = np.full(mate_c.size, NULL, dtype=np.int64)
    matched_new_rows = np.flatnonzero(mate_r != NULL)
    old_rows = inv_r[matched_new_rows]
    old_cols = inv_c[mate_r[matched_new_rows]]
    out_r[old_rows] = old_cols
    out_c[old_cols] = old_rows
    return out_r, out_c


def matching_to_permutation(mate_c: np.ndarray, nrows: int) -> np.ndarray:
    """Row permutation placing matched entries on the diagonal.

    For a square matrix with a perfect matching (every column matched),
    returns ``rowperm`` with ``rowperm[mate_c[j]] = j``: permuting the rows
    by it puts one matched nonzero in every diagonal position — the
    zero-free-diagonal preprocessing sparse direct solvers need.  Unmatched
    rows (structurally deficient matrices) fill the remaining positions in
    index order.
    """
    mate_c = np.asarray(mate_c, dtype=np.int64)
    rowperm = np.full(nrows, NULL, dtype=np.int64)
    matched_cols = np.flatnonzero(mate_c != NULL)
    rows = mate_c[matched_cols]
    if rows.size and (rows.min() < 0 or rows.max() >= nrows):
        raise ValueError("mate_c refers to rows outside the matrix")
    rowperm[rows] = matched_cols
    # Unmatched rows take the remaining target positions in increasing order.
    unmatched_rows = np.flatnonzero(rowperm == NULL)
    taken = np.zeros(max(nrows, mate_c.size), dtype=bool)
    taken[matched_cols] = True
    free = np.flatnonzero(~taken)[: unmatched_rows.size]
    rowperm[unmatched_rows] = free
    return rowperm
