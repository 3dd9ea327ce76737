"""The three dominant self-time loops as vectorized NumPy.

Each function is checked against a plain-Python loop oracle in
``tests/kernels/test_hot_parity.py``.
"""

from __future__ import annotations

import numpy as np

_I64_MAX = np.iinfo(np.int64).max


def keyed_min_scatter(
    rows: np.ndarray, k: np.ndarray, lo: int, width: int
) -> np.ndarray:
    """Per-row minimum of packed (key, position) codes.

    ``rows`` (int64) are candidate row ids in ``[lo, lo + width)``; ``k``
    (int64) the comparison keys.  Returns ``best`` of length ``width`` where
    ``best[j]`` is the minimum of ``k[i] * len(rows) + i`` over candidates
    with ``rows[i] - lo == j`` (``INT64_MAX`` where no candidate landed) —
    the first-arrival tie-breaking encode of
    :func:`repro.sparse.semiring.reduce_candidates`'s scatter fast path.
    The caller guarantees the packed code cannot overflow."""
    c = rows.size
    enc = k * np.int64(c) + np.arange(c, dtype=np.int64)
    best = np.full(width, _I64_MAX, dtype=np.int64)
    np.minimum.at(best, rows - lo, enc)
    return best


def ragged_gather_flat(
    indptr: np.ndarray, indices: np.ndarray, cols: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Concatenate ``indices[indptr[c]:indptr[c+1]]`` for each ``c`` in ``cols``.

    Returns ``(gathered, counts)``; ``counts[k]`` is the length contributed
    by ``cols[k]`` (the cumsum/repeat/arange trick, no Python loop)."""
    starts = indptr[cols]
    counts = indptr[cols + 1] - starts
    total = int(counts.sum())
    if total == 0:
        return np.empty(0, dtype=indices.dtype), counts
    # positions = concat(arange(starts[k], starts[k]+counts[k]))
    cum = np.cumsum(counts)
    offsets = np.repeat(starts - np.concatenate(([0], cum[:-1])), counts)
    positions = offsets + np.arange(total, dtype=np.int64)
    return indices[positions], counts


def pull_candidates(
    row_ptr: np.ndarray,
    col_idx: np.ndarray,
    rows: np.ndarray,
    root_of: np.ndarray,
    null: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
    """Early-exit bottom-up pull: each row's first frontier column.

    For each local row in ``rows``, read its adjacency ``col_idx[row_ptr[r]:
    row_ptr[r+1]]`` in order and stop at the first column with
    ``root_of[col] != null``.  Returns ``(rows, cols, roots, read)``: one
    (row, col, root_of[col]) triple per row that has a hit, rows in input
    order, and the number of edges read — up to and including each hit, a
    row without one read whole.  On an adjacency sorted ascending the hit is
    the row's minimum frontier column, the minParent winner."""
    cols, counts = ragged_gather_flat(row_ptr, col_idx, rows)
    ends = np.cumsum(counts)
    hits = np.flatnonzero(root_of[cols] != null)
    seg = np.searchsorted(ends, hits, side="right")
    first = np.ones(hits.size, dtype=bool)
    np.not_equal(seg[1:], seg[:-1], out=first[1:])
    hits, seg = hits[first], seg[first]
    cols = cols[hits]
    # a hit row stops short of its end by the edges after the hit
    read = (int(ends[-1]) if ends.size else 0) - int((ends[seg] - hits - 1).sum())
    return rows[seg], cols, root_of[cols], read
