"""Matrix construction sorts one composite key, byte for byte what a
lexsort gave.

``COO(dedup=True)``, ``CSC.from_coo`` and ``DCSC.from_coo`` order edges by
(column, row) through :func:`repro.sparse.coo.sorted_keys`.  The lexsort
constructions they replaced are kept below as the reference; every array
must come out with the same bytes and dtype.  The generators' outputs are
pinned by digest as well, from before the change.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.graphs.rmat import er, g500, ssca
from repro.sparse import COO, CSC, DCSC
from repro.sparse.coo import sorted_keys


# -- the lexsort reference -----------------------------------------------------


def _dedup_ref(rows, cols):
    if rows.size == 0:
        return rows, cols
    order = np.lexsort((rows, cols))
    rows, cols = rows[order], cols[order]
    keep = np.empty(rows.size, dtype=bool)
    keep[0] = True
    np.not_equal(rows[1:], rows[:-1], out=keep[1:])
    keep[1:] |= cols[1:] != cols[:-1]
    return rows[keep], cols[keep]


def _csc_ref(coo):
    order = np.lexsort((coo.rows, coo.cols))
    indptr = np.zeros(coo.ncols + 1, dtype=np.int64)
    np.cumsum(np.bincount(coo.cols, minlength=coo.ncols), out=indptr[1:])
    return indptr, coo.rows[order]


def _dcsc_ref(coo):
    if coo.nnz == 0:
        return np.empty(0, np.int64), np.zeros(1, np.int64), np.empty(0, np.int64)
    order = np.lexsort((coo.rows, coo.cols))
    jc, counts = np.unique(coo.cols[order], return_counts=True)
    cp = np.zeros(jc.size + 1, dtype=np.int64)
    np.cumsum(counts, out=cp[1:])
    return jc, cp, coo.rows[order]


def _same_bytes(got, ref):
    assert len(got) == len(ref)
    for g, r in zip(got, ref):
        assert g.dtype == r.dtype == np.int64
        assert g.tobytes() == r.tobytes()


# -- raw edge lists: duplicates, unsorted, empty, 0×n / n×0, rectangular -----------


@st.composite
def edge_lists(draw):
    big = draw(st.booleans())
    hi = 2**31 - 1 if big else 12
    nrows, ncols = draw(st.integers(0, hi)), draw(st.integers(0, hi))
    nnz = draw(st.integers(0, 60)) if nrows and ncols else 0
    if big:
        # a few far-apart ids, repeated: wide keys and duplicates both
        pool_r = draw(st.lists(st.integers(0, nrows - 1), min_size=1, max_size=5)) if nnz else [0]
        pool_c = draw(st.lists(st.integers(0, ncols - 1), min_size=1, max_size=5)) if nnz else [0]
        rows = draw(st.lists(st.sampled_from(pool_r), min_size=nnz, max_size=nnz))
        cols = draw(st.lists(st.sampled_from(pool_c), min_size=nnz, max_size=nnz))
    else:
        rows = draw(st.lists(st.integers(0, max(0, nrows - 1)), min_size=nnz, max_size=nnz))
        cols = draw(st.lists(st.integers(0, max(0, ncols - 1)), min_size=nnz, max_size=nnz))
    return nrows, ncols, np.array(rows, np.int64), np.array(cols, np.int64)


@settings(max_examples=200, deadline=None)
@given(edge_lists())
def test_construction_matches_the_lexsort_reference(edges):
    nrows, ncols, rows, cols = edges
    coo = COO(nrows, ncols, rows, cols)
    _same_bytes((coo.rows, coo.cols), _dedup_ref(rows, cols))
    # the compressed formats take duplicates and any order as they come
    raw = COO(nrows, ncols, rows, cols, dedup=False)
    for m in (coo, raw):
        if ncols <= 12:  # CSC's column pointers are dense
            csc = CSC.from_coo(m)
            _same_bytes((csc.indptr, csc.indices), _csc_ref(m))
        dcsc = DCSC.from_coo(m)
        _same_bytes((dcsc.jc, dcsc.cp, dcsc.ir), _dcsc_ref(m))
    assert coo == coo.transpose().transpose()
    assert raw == COO(nrows, ncols, rows[::-1], cols[::-1], dedup=False)


def test_zero_dimension_shapes():
    for shape in ((0, 5), (5, 0), (0, 0)):
        coo = COO.empty(*shape)
        assert coo.nnz == 0
        assert CSC.from_coo(coo).indptr.tolist() == [0] * (shape[1] + 1)
        assert DCSC.from_coo(coo).nzc == 0
        assert sorted_keys(*shape, coo.rows, coo.cols).size == 0


# -- the key's range -------------------------------------------------------------


def test_keys_beyond_int64_raise_naming_the_shape():
    one = np.zeros(1, np.int64)
    with pytest.raises(ValueError, match="4294967296 x 2147483648"):
        COO(2**32, 2**31, one, one)
    raw = COO(2**32, 2**31, one, one, dedup=False)
    for build in (CSC.from_coo, DCSC.from_coo):
        with pytest.raises(ValueError, match="4294967296 x 2147483648"):
            build(raw)
    with pytest.raises(ValueError, match="2147483648 x 4294967296"):
        raw.transpose() == raw.transpose()


def test_keys_just_inside_int64_decode_exactly():
    # nrows·ncols = 2⁶³ − 2³²: the largest key is 2⁶³ − 2³² − 1
    nrows, ncols = 2**32, 2**31 - 1
    rows = np.array([nrows - 1, 0, nrows - 1, 5], np.int64)
    cols = np.array([ncols - 1, 0, ncols - 1, ncols - 1], np.int64)
    coo = COO(nrows, ncols, rows, cols)
    assert coo.rows.tolist() == [0, 5, nrows - 1]
    assert coo.cols.tolist() == [0, ncols - 1, ncols - 1]
    assert int(sorted_keys(nrows, ncols, rows, cols)[-1]) == 2**63 - 2**32 - 1


def test_equality_is_multiset_equality():
    a = COO(4, 3, np.array([0, 3, 1]), np.array([2, 0, 1]), dedup=False)
    b = COO(4, 3, np.array([1, 0, 3]), np.array([1, 2, 0]), dedup=False)
    assert a == b
    assert a != COO(4, 3, np.array([1, 0, 3]), np.array([1, 2, 1]), dedup=False)
    assert a != COO(4, 4, a.rows, a.cols, dedup=False)
    doubled = COO(4, 3, np.r_[a.rows, 0], np.r_[a.cols, 2], dedup=False)
    assert doubled != COO(4, 3, np.r_[a.rows, 1], np.r_[a.cols, 1], dedup=False)


# -- the generators, pinned ------------------------------------------------------

_GEN = {"er": er, "g500": g500, "ssca": ssca}

#: sha256 over (nrows, ncols) as int64, then rows, then cols, computed with
#: the lexsort construction and the allocating R-MAT level loop
DIGESTS = {
    ("er", 6, 0): "1c656ef149da3d2f3fb373063666c6bdaf769aa575df09ce81b5cb6124ed2778",
    ("er", 6, 1): "f153d3b90890eba386a73934f360bca6732b23a6375de8adf387a9a498684445",
    ("er", 10, 0): "0e9fde2cdfa60582423cf9004589549fbeb8dff68c4f5f65400fcefdc0b22776",
    ("er", 10, 1): "71ab5f48b8695b7b519c5d50138c7a8ba554d91fa19aa27f1bb0396d9f105436",
    ("g500", 6, 0): "318020f41751aee74c503f98296a6bc348fa0c2db637ab09feff11ce5011da89",
    ("g500", 6, 1): "adacdbf146ed125dede2c778a456d590cb01812795c868c0b56cd2676adb6fd8",
    ("g500", 10, 0): "f58f80796d1069035cec51f560d1fd8b9ba4184ee7f21efb6d27022ae96777a6",
    ("g500", 10, 1): "d50a94ed04b5984bb045c2e074c250ce9ba08bed2ad652f20b0bcfd310e4a5a5",
    ("ssca", 6, 0): "1d09a3001a02c479e36628836d201a1d3c138ea405a6166f772d17c38fa99c9d",
    ("ssca", 6, 1): "981bd1a79d311aac3b43e8e1fc1b28d7a29a3a432d82082aff48ea6dce4633e7",
    ("ssca", 10, 0): "abcef1d670b76c3a56b9c197eba6ea57df91701c54fa478f2e791f21937ff3fd",
    ("ssca", 10, 1): "e73f11c1e9bc4442e13966cdce1f7c3af7882055552b8eb1c9b50df521e88680",
}


@pytest.mark.parametrize("name,scale,seed", sorted(DIGESTS))
def test_generators_are_pinned(name, scale, seed):
    coo = _GEN[name](scale, seed=seed)
    h = hashlib.sha256(np.array([coo.nrows, coo.ncols], np.int64).tobytes())
    h.update(coo.rows.tobytes())
    h.update(coo.cols.tobytes())
    assert h.hexdigest() == DIGESTS[(name, scale, seed)]
