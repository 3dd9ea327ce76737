"""Property-based tests (hypothesis) for the sparse substrate's invariants."""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.sparse import COO, CSC, DCSC, SR_MIN_PARENT, SparseVec, VertexFrontier
from repro.sparse.primitives import invert, prune, select, set_dense
from repro.sparse.spvec import NULL


@st.composite
def coo_matrices(draw, max_dim=40, max_nnz=200):
    nrows = draw(st.integers(1, max_dim))
    ncols = draw(st.integers(1, max_dim))
    nnz = draw(st.integers(0, max_nnz))
    rows = draw(st.lists(st.integers(0, nrows - 1), min_size=nnz, max_size=nnz))
    cols = draw(st.lists(st.integers(0, ncols - 1), min_size=nnz, max_size=nnz))
    return COO(nrows, ncols, np.array(rows, np.int64), np.array(cols, np.int64))


@st.composite
def sparse_vectors(draw, max_len=50, min_val=0, max_val=49):
    n = draw(st.integers(1, max_len))
    idx = draw(st.lists(st.integers(0, n - 1), unique=True, max_size=n))
    idx = np.array(sorted(idx), np.int64)
    vals = draw(st.lists(st.integers(min_val, max_val), min_size=idx.size, max_size=idx.size))
    return SparseVec(n, idx, np.array(vals, np.int64))


@settings(max_examples=60, deadline=None)
@given(coo_matrices())
def test_csc_dcsc_coo_round_trips(a):
    assert CSC.from_coo(a).to_coo() == a
    assert DCSC.from_coo(a).to_coo() == a


@settings(max_examples=60, deadline=None)
@given(coo_matrices())
def test_transpose_involution_and_degree_swap(a):
    t = a.transpose()
    assert t.transpose() == a
    assert np.array_equal(a.row_degrees(), t.col_degrees())
    assert a.nnz == t.nnz


@settings(max_examples=60, deadline=None)
@given(coo_matrices(), st.integers(0, 2**32 - 1))
def test_random_permutation_preserves_nnz_and_degree_multiset(a, seed):
    from repro.sparse.permute import randomly_permuted

    b, rp, cp = randomly_permuted(a, np.random.default_rng(seed))
    assert b.nnz == a.nnz
    assert sorted(a.row_degrees().tolist()) == sorted(b.row_degrees().tolist())
    assert sorted(a.col_degrees().tolist()) == sorted(b.col_degrees().tolist())


@settings(max_examples=60, deadline=None)
@given(coo_matrices(max_dim=30, max_nnz=120), st.data())
def test_spmv_winner_is_always_a_real_candidate(a, data):
    """Every (row, parent) the semiring SpMV returns must be an actual edge
    whose column was on the frontier, with the root inherited from it."""
    csc = CSC.from_coo(a)
    k = data.draw(st.integers(0, a.ncols))
    fidx = np.array(sorted(data.draw(
        st.lists(st.integers(0, a.ncols - 1), unique=True, max_size=k)
    )), np.int64)
    fc = VertexFrontier.roots_of_self(a.ncols, fidx)
    fr = csc.spmv_frontier(fc, SR_MIN_PARENT)
    edges = set(zip(a.rows.tolist(), a.cols.tolist()))
    fset = set(fidx.tolist())
    for r, p, root in zip(fr.idx.tolist(), fr.parent.tolist(), fr.root.tolist()):
        assert (r, p) in edges
        assert p in fset
        assert root == p  # initial frontier: root == column id
    # and the reached set is exactly the union of frontier columns' rows
    reached = {r for (r, c) in edges if c in fset}
    assert set(fr.idx.tolist()) == reached


@settings(max_examples=60, deadline=None)
@given(sparse_vectors())
def test_invert_entries_swap(x):
    z = invert(x, length=max(x.n, int(x.val.max()) + 1 if x.nnz else 1))
    pairs = set(zip(x.idx.tolist(), x.val.tolist()))
    for v, i in zip(z.idx.tolist(), z.val.tolist()):
        assert (i, v) in pairs
    # one output entry per distinct value
    assert z.nnz == np.unique(x.val).size if x.nnz else z.nnz == 0


@settings(max_examples=60, deadline=None)
@given(sparse_vectors(), sparse_vectors())
def test_prune_removes_exactly_shared_values(x, q):
    z = prune(x, q)
    qvals = set(q.val.tolist())
    kept = dict(zip(z.idx.tolist(), z.val.tolist()))
    for i, v in zip(x.idx.tolist(), x.val.tolist()):
        if v in qvals:
            assert i not in kept
        else:
            assert kept[i] == v
    # idempotent
    assert prune(z, q) == z


@settings(max_examples=60, deadline=None)
@given(sparse_vectors())
def test_select_set_round_trip(x):
    """SET into a fresh dense vector then re-sparsify = original (when no
    value equals the missing sentinel)."""
    dense = np.full(x.n, NULL, np.int64)
    set_dense(dense, x)
    idx = np.flatnonzero(dense != NULL)
    back = SparseVec(x.n, idx, dense[idx])
    # values >= 0 by construction of the strategy
    assert back == x
    # SELECT with an always-true predicate is identity
    assert select(x, dense, lambda v: np.ones(v.shape, bool)) == x


@settings(max_examples=40, deadline=None)
@given(coo_matrices(max_dim=20, max_nnz=60))
def test_block_partition_covers_matrix(a):
    """Cutting the matrix into a 2x2 block grid partitions the nonzeros."""
    rmid, cmid = a.nrows // 2, a.ncols // 2
    blocks = [
        a.block(0, rmid, 0, cmid), a.block(0, rmid, cmid, a.ncols),
        a.block(rmid, a.nrows, 0, cmid), a.block(rmid, a.nrows, cmid, a.ncols),
    ]
    assert sum(b.nnz for b in blocks) == a.nnz
