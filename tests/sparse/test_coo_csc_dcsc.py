"""Matrix containers: COO building, CSC/DCSC equivalence, format invariants."""

import numpy as np
import pytest

from repro.sparse import COO, CSC, DCSC, SparseVec

from ..helpers import coo_from_edges


def small():
    # The paper's Fig. 2 example graph: 4 rows x 5 cols.
    edges = [(0, 0), (0, 3), (1, 0), (1, 1), (2, 1), (2, 2), (3, 2), (3, 4), (2, 4)]
    return coo_from_edges(4, 5, edges)


# -- COO -----------------------------------------------------------------------

def test_coo_basic_properties():
    a = small()
    assert a.shape == (4, 5)
    assert a.nnz == 9
    assert a.row_degrees().tolist() == [2, 2, 3, 2]
    assert a.col_degrees().tolist() == [2, 2, 2, 1, 2]


def test_coo_dedup():
    a = coo_from_edges(2, 2, [(0, 0), (0, 0), (1, 1), (0, 0)])
    assert a.nnz == 2


def test_coo_rejects_out_of_range():
    with pytest.raises(ValueError):
        coo_from_edges(2, 2, [(0, 5)])
    with pytest.raises(ValueError):
        coo_from_edges(2, 2, [(-1, 0)])


def test_coo_transpose_round_trip():
    a = small()
    t = a.transpose()
    assert t.shape == (5, 4)
    assert t.transpose() == a


def test_coo_permuted_preserves_structure():
    a = small()
    rp = np.array([2, 0, 3, 1])
    cp = np.array([4, 3, 2, 1, 0])
    b = a.permuted(rp, cp)
    assert b.nnz == a.nnz
    # edge (0,0) became (2,4)
    pairs = set(zip(b.rows.tolist(), b.cols.tolist()))
    assert (2, 4) in pairs


def test_coo_block_extraction():
    a = small()
    blk = a.block(0, 2, 0, 2)  # rows 0-1, cols 0-1
    pairs = set(zip(blk.rows.tolist(), blk.cols.tolist()))
    assert pairs == {(0, 0), (1, 0), (1, 1)}
    assert blk.shape == (2, 2)


def test_value_types_are_unhashable():
    """COO and SparseVec compare by value and are mutable, so neither may
    hash: a set or dict of them would split equal values silently."""
    for value in (small(), SparseVec(3, np.array([1]), np.array([2]))):
        with pytest.raises(TypeError):
            hash(value)


def test_coo_empty_and_identity():
    assert COO.empty(3, 4).nnz == 0
    i = COO(3, 3, np.arange(3), np.arange(3), dedup=False)
    assert i.nnz == 3 and i.shape == (3, 3)


# -- CSC -----------------------------------------------------------------------

def test_csc_round_trip():
    a = small()
    csc = CSC.from_coo(a)
    assert csc.nnz == a.nnz
    assert csc.to_coo() == a


def test_csc_columns_sorted():
    csc = CSC.from_coo(small())
    for j in range(csc.ncols):
        col = csc.column(j)
        assert np.all(np.diff(col) > 0)


def test_csc_degrees():
    csc = CSC.from_coo(small())
    assert csc.col_degrees().tolist() == [2, 2, 2, 1, 2]
    assert csc.row_degrees().tolist() == [2, 2, 3, 2]


def test_csc_transpose_is_cached_and_correct():
    csc = CSC.from_coo(small())
    t = csc.transpose()
    assert t.shape == (5, 4)
    assert t.transpose() is csc
    assert t.to_coo() == small().transpose()


def test_csc_validation():
    with pytest.raises(ValueError):
        CSC(2, 2, np.array([0, 1]), np.array([0]))  # wrong indptr length
    with pytest.raises(ValueError):
        CSC(2, 2, np.array([0, 2, 1]), np.array([0, 1]))  # decreasing
    with pytest.raises(ValueError):
        CSC(2, 2, np.array([0, 1, 2]), np.array([0, 5]))  # row out of range


# -- DCSC ----------------------------------------------------------------------

def test_dcsc_round_trip():
    a = small()
    d = DCSC.from_coo(a)
    assert d.nnz == a.nnz
    assert d.to_coo() == a


def test_dcsc_skips_empty_columns():
    a = coo_from_edges(4, 1000, [(0, 5), (1, 5), (2, 900)])
    d = DCSC.from_coo(a)
    assert d.nzc == 2
    assert d.jc.tolist() == [5, 900]
    # Memory is O(nnz + nzc), far below the 1001 words CSC's indptr needs.
    assert d.jc.size + d.cp.size + d.ir.size == 2 + 3 + 3


def test_dcsc_hypersparse_memory_advantage():
    """A block with nnz << ncols must beat CSC storage — the reason CombBLAS
    (and we) use DCSC for 2D blocks."""
    ncols = 100_000
    a = coo_from_edges(100, ncols, [(i, i * 997 % ncols) for i in range(50)])
    d = DCSC.from_coo(a)
    csc_words = ncols + 1 + a.nnz
    assert d.jc.size + d.cp.size + d.ir.size < csc_words / 100


def test_dcsc_empty_matrix():
    d = DCSC.from_coo(COO.empty(5, 5))
    assert d.nnz == 0 and d.nzc == 0
    assert d.to_coo().nnz == 0


def test_dcsc_degrees():
    d = DCSC.from_coo(small())
    assert d.col_degrees().tolist() == [2, 2, 2, 1, 2]
    assert d.row_degrees().tolist() == [2, 2, 3, 2]


def test_dcsc_validation():
    with pytest.raises(ValueError):
        DCSC(2, 2, np.array([0, 0]), np.array([0, 1, 2]), np.array([0, 1]))  # dup jc
    with pytest.raises(ValueError):
        DCSC(2, 2, np.array([0]), np.array([0, 0]), np.empty(0, np.int64))  # empty jc col


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_csc_dcsc_agree_on_random_matrices(seed):
    rng = np.random.default_rng(seed)
    m = 300
    rows = rng.integers(0, 40, m)
    cols = rng.integers(0, 60, m)
    a = COO(40, 60, rows, cols)
    assert CSC.from_coo(a).to_coo() == DCSC.from_coo(a).to_coo()


# -- the cached row-major mirror (bottom-up traversal support) ----------------


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_dcsc_csr_mirror_roundtrips(seed):
    """The mirror holds exactly the block's edges, columns ascending within
    each row."""
    rng = np.random.default_rng(seed)
    coo = COO(30, 50, rng.integers(0, 30, 200), rng.integers(0, 50, 200))
    d = DCSC.from_coo(coo)
    row_ptr, col_idx = d.csr_mirror()
    assert row_ptr.size == d.nrows + 1 and col_idx.size == d.nnz
    mirror_rows = np.repeat(np.arange(d.nrows), np.diff(row_ptr))
    ref = d.to_coo()
    order = np.lexsort((ref.cols, ref.rows))
    assert np.array_equal(mirror_rows, ref.rows[order])
    assert np.array_equal(col_idx, ref.cols[order])
    # within-row column ascent is what downstream tie-breaking relies on
    same_row = mirror_rows[1:] == mirror_rows[:-1]
    assert np.all(col_idx[1:][same_row] > col_idx[:-1][same_row])


@pytest.mark.parametrize("shape,nnz", [((30, 50), 200), ((1, 7), 5), ((9, 1), 6), ((4, 6), 0)])
def test_dcsc_csr_mirror_equals_the_lexsort_form(shape, nnz):
    """The composite-key sort builds exactly the mirror a lexsort by (row,
    column) would."""
    rng = np.random.default_rng(nnz)
    coo = COO(*shape, rng.integers(0, shape[0], nnz), rng.integers(0, shape[1], nnz))
    d = DCSC.from_coo(coo)
    cols = np.repeat(d.jc, np.diff(d.cp))
    want = cols[np.lexsort((cols, d.ir))]
    got = d.csr_mirror()[1]
    assert got.dtype == want.dtype and np.array_equal(got, want)
    assert np.array_equal(d.col_degrees(), np.bincount(cols, minlength=d.ncols))


def test_dcsc_csr_mirror_and_degrees_are_cached():
    d = DCSC.from_coo(small())
    assert d.csr_mirror() is d.csr_mirror()
    assert d.row_degrees() is d.row_degrees()
    assert np.array_equal(d.row_degrees(), np.diff(d.csr_mirror()[0]))


def test_dcsc_csr_mirror_matches_bruteforce():
    """Each row's columns, ascending: what greedy's cursor and the pull
    read."""
    rng = np.random.default_rng(7)
    coo = COO(25, 40, rng.integers(0, 25, 150), rng.integers(0, 40, 150))
    d = DCSC.from_coo(coo)
    ref = d.to_coo()
    row_ptr, col_idx = d.csr_mirror()
    for r in range(d.nrows):
        got = col_idx[row_ptr[r]:row_ptr[r + 1]].tolist()
        assert got == sorted(int(c) for c in ref.cols[ref.rows == r])


def test_csc_row_degrees_cached_and_correct():
    a = CSC.from_coo(small())
    assert a.row_degrees() is a.row_degrees()
    assert a.row_degrees().tolist() == [2, 2, 3, 2]
    assert np.array_equal(a.row_degrees(), a.transpose().col_degrees())
