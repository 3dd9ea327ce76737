"""Table I primitives — including the paper's own worked examples."""

import numpy as np
import pytest

from repro.sparse import SparseVec
from repro.sparse.primitives import invert, prune, select, set_dense
from repro.sparse.spvec import NULL


def sv(dense, missing=0):
    """Sparse vector from the paper's dense-with-zeros notation."""
    dense = np.asarray(dense, dtype=np.int64)
    idx = np.flatnonzero(dense != missing)
    return SparseVec(dense.size, idx, dense[idx])


def dense_of(x, missing=0):
    """The paper's dense-with-zeros notation of a sparse vector (SET into a
    vector of ``missing``)."""
    return set_dense(np.full(x.n, missing, dtype=np.int64), x)


# -- IND (a sparse vector's index array) ---------------------------------------

def test_ind_paper_example():
    # x = [3, 0, 2, 2, 0] -> IND(x) = [0, 2, 3]  (paper writes 1-based [1,3,4])
    x = sv([3, 0, 2, 2, 0])
    assert x.idx.tolist() == [0, 2, 3]


def test_ind_empty():
    assert SparseVec.empty(4).idx.size == 0


# -- SELECT ------------------------------------------------------------------------

def test_select_paper_example():
    # x = [3,0,2,2,0], y = [1,-1,-1,2,1], keep where y == -1 -> [0,0,2,0,0]
    x = sv([3, 0, 2, 2, 0])
    y = np.array([1, -1, -1, 2, 1], dtype=np.int64)
    z = select(x, y, lambda v: v == -1)
    assert dense_of(z).tolist() == [0, 0, 2, 0, 0]


def test_select_touches_only_sparse_entries():
    x = SparseVec(10, np.array([2, 7]), np.array([5, 6]))
    y = np.arange(10, dtype=np.int64)
    z = select(x, y, lambda v: v > 3)
    assert z.idx.tolist() == [7]
    assert z.val.tolist() == [6]


def test_select_length_mismatch():
    with pytest.raises(ValueError):
        select(sv([1, 0]), np.zeros(3, dtype=np.int64), lambda v: v == 0)


def test_select_empty_input():
    z = select(SparseVec.empty(5), np.zeros(5, dtype=np.int64), lambda v: v == 0)
    assert z.nnz == 0


# -- SET ---------------------------------------------------------------------------

def test_set_dense_writes_at_sparse_indices():
    y = np.full(5, NULL, dtype=np.int64)
    x = SparseVec(5, np.array([1, 3]), np.array([7, 9]))
    set_dense(y, x)
    assert y.tolist() == [NULL, 7, NULL, 9, NULL]


def test_set_dense_length_mismatch():
    with pytest.raises(ValueError):
        set_dense(np.zeros(3, dtype=np.int64), sv([1, 0]))


# -- INVERT -------------------------------------------------------------------------

def test_invert_paper_example():
    # x = [3,0,2,2,0]: entries (0:3), (2:2), (3:2)
    # INVERT swaps: z[3]=0, z[2]=2 (first index wins for value 2)
    x = sv([3, 0, 2, 2, 0])
    z = invert(x)
    assert z.idx.tolist() == [2, 3]
    assert z.val.tolist() == [2, 0]


def test_invert_first_index_wins_on_repeats():
    x = SparseVec(6, np.array([1, 2, 4]), np.array([5, 5, 5]))
    z = invert(x)
    assert z.idx.tolist() == [5]
    assert z.val.tolist() == [1]


def test_invert_is_self_inverse_when_values_unique():
    x = SparseVec(6, np.array([0, 2, 5]), np.array([4, 1, 3]))
    z = invert(invert(x))
    assert z == x


def test_invert_with_explicit_length():
    x = SparseVec(3, np.array([0, 1]), np.array([7, 2]))
    z = invert(x, length=10)
    assert z.n == 10
    assert z.idx.tolist() == [2, 7]


def test_invert_rejects_out_of_range_values():
    x = SparseVec(3, np.array([0]), np.array([5]))
    with pytest.raises(ValueError):
        invert(x)


def test_invert_empty():
    assert invert(SparseVec.empty(4)).nnz == 0


# -- PRUNE --------------------------------------------------------------------------

def test_prune_paper_example():
    # x = [0,0,5,0,2], q = [2,0,0,4,1] -> PRUNE(x, q) = [0,0,5,0,0]
    x = sv([0, 0, 5, 0, 2])
    q = sv([2, 0, 0, 4, 1])
    z = prune(x, q)
    assert dense_of(z).tolist() == [0, 0, 5, 0, 0]


def test_prune_by_value_not_index():
    x = SparseVec(4, np.array([0, 1]), np.array([9, 3]))
    q = SparseVec(4, np.array([3]), np.array([9]))
    z = prune(x, q)
    assert z.idx.tolist() == [1]


def test_prune_with_empty_q_is_identity():
    x = sv([1, 0, 2])
    z = prune(x, SparseVec.empty(3))
    assert z == x


# -- SparseVec container --------------------------------------------------------------

def test_sparsevec_dense_round_trip():
    # compress the -1-for-missing form, then SET it back
    d = np.array([NULL, 4, NULL, 0, 7], dtype=np.int64)
    v = sv(d, missing=NULL)
    assert v.nnz == 3
    assert dense_of(v, missing=NULL).tolist() == d.tolist()


def test_sparsevec_requires_sorted_indices():
    with pytest.raises(ValueError):
        SparseVec(5, np.array([3, 1]), np.array([0, 0]))


def test_sparsevec_rejects_out_of_range_index():
    with pytest.raises(ValueError):
        SparseVec(3, np.array([5]), np.array([0]))


def test_sparsevec_equality_and_copy():
    v = sv([1, 0, 2])
    w = v.copy()
    assert v == w
    w.val[0] = 99
    assert v != w
