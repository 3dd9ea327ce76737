"""The hot kernels against plain-Python loop oracles.

:mod:`repro.kernels.hot` holds one vectorized NumPy implementation of each
kernel.  The oracles below are the obvious per-element loops, written here
so they share no code with what they check; results must be bit-identical
(values, order and dtype of the gathered arrays).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.kernels import keyed_min_scatter, pull_candidates, ragged_gather_flat

SEEDS = [0, 1, 2, 3]
_I64_MAX = np.iinfo(np.int64).max


def _keyed_min_scatter_loop(rows, k, lo, width):
    c = rows.size
    best = np.full(width, _I64_MAX, dtype=np.int64)
    for i in range(c):
        e = int(k[i]) * c + i
        j = int(rows[i]) - lo
        if e < best[j]:
            best[j] = e
    return best


def _ragged_gather_loop(indptr, indices, cols):
    counts = np.array([indptr[c + 1] - indptr[c] for c in cols], dtype=np.int64)
    out = [indices[t] for c in cols for t in range(indptr[c], indptr[c + 1])]
    return np.array(out, dtype=indices.dtype), counts


def _pull_candidates_loop(row_ptr, col_idx, rows, root_of, null):
    out, read = [], 0
    for r in rows:
        for t in range(row_ptr[r], row_ptr[r + 1]):
            read += 1
            c = col_idx[t]
            if root_of[c] != null:
                out.append((r, c, root_of[c]))
                break
    arrays = tuple(np.array(a, dtype=np.int64) for a in zip(*out)) if out else (
        (np.empty(0, dtype=np.int64),) * 3
    )
    return (*arrays, read)


def _random_csc(rng: np.random.Generator, n: int, m: int, density: float):
    """(indptr, indices) of an n-column ragged structure over m targets."""
    counts = rng.binomial(m, density, size=n).astype(np.int64)
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr[1:])
    indices = rng.integers(0, m, size=int(indptr[-1]), dtype=np.int64)
    return indptr, indices


def _assert_same(got, ref):
    assert len(got) == len(ref)
    for g, r in zip(got, ref):
        np.testing.assert_array_equal(g, r)
        assert np.asarray(g).dtype == np.asarray(r).dtype


@pytest.mark.parametrize("seed", SEEDS)
def test_keyed_min_scatter_matches_reference(seed):
    rng = np.random.default_rng(seed)
    lo, width = 7, 40
    c = int(rng.integers(1, 200))
    rows = rng.integers(lo, lo + width, size=c, dtype=np.int64)
    k = rng.integers(0, 1000, size=c, dtype=np.int64)
    _assert_same([keyed_min_scatter(rows, k, lo, width)],
                 [_keyed_min_scatter_loop(rows, k, lo, width)])


def test_keyed_min_scatter_empty():
    rows = np.empty(0, dtype=np.int64)
    got = keyed_min_scatter(rows, rows, 0, 5)
    np.testing.assert_array_equal(got, np.full(5, _I64_MAX, dtype=np.int64))


@pytest.mark.parametrize("seed", SEEDS)
def test_ragged_gather_matches_reference(seed):
    rng = np.random.default_rng(seed + 100)
    indptr, indices = _random_csc(rng, 60, 80, 0.1)
    cols = rng.integers(0, 60, size=int(rng.integers(0, 50)), dtype=np.int64)
    _assert_same(ragged_gather_flat(indptr, indices, cols),
                 _ragged_gather_loop(indptr, indices, cols))


def test_ragged_gather_empty():
    indptr, indices = _random_csc(np.random.default_rng(5), 10, 20, 0.2)
    none = np.empty(0, dtype=np.int64)
    _assert_same(ragged_gather_flat(indptr, indices, none),
                 _ragged_gather_loop(indptr, indices, none))
    # columns that are all empty: counts are zeros, nothing gathered
    indptr0 = np.zeros(4, dtype=np.int64)
    cols = np.array([2, 0], dtype=np.int64)
    _assert_same(ragged_gather_flat(indptr0, none, cols),
                 _ragged_gather_loop(indptr0, none, cols))


def test_ragged_gather_non_int64_dtype_falls_back():
    # int32 ``indices`` keep their dtype through the gather
    indptr = np.array([0, 2, 3], dtype=np.int64)
    indices = np.array([5, 7, 9], dtype=np.int32)
    cols = np.array([0, 1], dtype=np.int64)
    got_g, got_c = ragged_gather_flat(indptr, indices, cols)
    np.testing.assert_array_equal(got_g, np.array([5, 7, 9], dtype=np.int32))
    assert got_g.dtype == np.int32
    np.testing.assert_array_equal(got_c, np.array([2, 1]))
    _assert_same((got_g, got_c), _ragged_gather_loop(indptr, indices, cols))


@pytest.mark.parametrize("seed", SEEDS)
def test_pull_candidates_matches_reference(seed):
    rng = np.random.default_rng(seed + 200)
    nrows, ncols, null = 50, 70, -1
    row_ptr, col_idx = _random_csc(rng, nrows, ncols, 0.08)
    rows = np.unique(rng.integers(0, nrows, size=30, dtype=np.int64))
    root_of = np.full(ncols, null, dtype=np.int64)
    lit = rng.integers(0, ncols, size=ncols // 3)
    root_of[lit] = rng.integers(0, 1000, size=lit.size)
    got = pull_candidates(row_ptr, col_idx, rows, root_of, null)
    ref = _pull_candidates_loop(row_ptr, col_idx, rows, root_of, null)
    assert ref[0].size > 0
    _assert_same(got, ref)


def test_pull_candidates_empty():
    row_ptr, col_idx = _random_csc(np.random.default_rng(6), 8, 9, 0.3)
    none = np.empty(0, dtype=np.int64)
    dark = np.full(9, -1, dtype=np.int64)
    # no rows asked for, and rows whose columns are all off the frontier
    for rows in (none, np.arange(8, dtype=np.int64)):
        _assert_same(pull_candidates(row_ptr, col_idx, rows, dark, -1),
                     _pull_candidates_loop(row_ptr, col_idx, rows, dark, -1))
    # a row without a hit is read whole
    assert pull_candidates(row_ptr, col_idx, np.arange(8), dark, -1)[3] == row_ptr[-1]


def test_pull_candidates_stops_at_each_rows_first_hit():
    """Rows 0 and 3 are empty, row 2 has no frontier column; row 1 stops
    after two of its four edges, row 4 at its first."""
    row_ptr = np.array([0, 0, 4, 6, 6, 8], dtype=np.int64)
    col_idx = np.array([0, 2, 3, 5, 1, 4, 3, 0], dtype=np.int64)
    root_of = np.array([-1, -1, 7, 8, -1, -1], dtype=np.int64)
    rows = np.arange(5, dtype=np.int64)
    got = pull_candidates(row_ptr, col_idx, rows, root_of, -1)
    _assert_same(got, ([1, 4], [2, 3], [7, 8], 2 + 2 + 1))
    _assert_same(got, _pull_candidates_loop(row_ptr, col_idx, rows, root_of, -1))
    # rows in any order, repeats included, come back in input order
    rows = np.array([4, 3, 1, 4], dtype=np.int64)
    _assert_same(pull_candidates(row_ptr, col_idx, rows, root_of, -1),
                 _pull_candidates_loop(row_ptr, col_idx, rows, root_of, -1))
    # an empty structure
    empty = np.zeros(1, dtype=np.int64), np.empty(0, dtype=np.int64)
    nothing = np.empty(0, dtype=np.int64)
    _assert_same(pull_candidates(*empty, nothing, root_of, -1), (nothing,) * 3 + (0,))
