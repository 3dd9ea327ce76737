"""Semiring SpMV: the Fig. 2 worked example and CSC/DCSC agreement."""

import numpy as np
import pytest

from repro.sparse import (
    COO,
    CSC,
    DCSC,
    SR_MAX_PARENT,
    SR_MIN_PARENT,
    SR_MIN_ROOT,
    SR_RAND_PARENT,
    SR_RAND_ROOT,
    Semiring,
    VertexFrontier,
)
from repro.sparse.semiring import reduce_candidates

from ..helpers import coo_from_edges


def fig2_matrix():
    """The paper's Fig. 2 bipartite graph: rows r1..r5, cols c1..c5 (0-based
    here).  Edges chosen to exercise multi-candidate reduction: row 1 is
    adjacent to frontier columns 0, 1 and 4."""
    edges = [
        (0, 0), (1, 0),
        (1, 1), (2, 1),
        (2, 2), (3, 2),
        (1, 4), (3, 4), (4, 4),
        (4, 3),
    ]
    return CSC.from_coo(coo_from_edges(5, 5, edges))


def unmatched_frontier():
    # initial frontier: unmatched columns 0, 1, 4 with parent=root=self
    return VertexFrontier.roots_of_self(5, np.array([0, 1, 4]))


def test_spmv_min_parent_fig2():
    a = fig2_matrix()
    fr = a.spmv_frontier(unmatched_frontier(), SR_MIN_PARENT)
    # Reached rows: 0 (from c0), 1 (c0,c1,c4 -> min parent c0),
    # 2 (c1), 3 (c4), 4 (c4)
    assert fr.idx.tolist() == [0, 1, 2, 3, 4]
    assert fr.parent.tolist() == [0, 0, 1, 4, 4]
    assert fr.root.tolist() == [0, 0, 1, 4, 4]


def test_spmv_max_parent():
    a = fig2_matrix()
    fr = a.spmv_frontier(unmatched_frontier(), SR_MAX_PARENT)
    assert fr.parent.tolist() == [0, 4, 1, 4, 4]


def test_spmv_rand_parent_is_valid_choice():
    a = fig2_matrix()
    rng = np.random.default_rng(7)
    fr = a.spmv_frontier(unmatched_frontier(), SR_RAND_PARENT, rng)
    assert fr.idx.tolist() == [0, 1, 2, 3, 4]
    # row 1's parent must be one of its adjacent frontier columns
    assert fr.parent[1] in (0, 1, 4)
    # every winner's root equals its parent here (initial frontier)
    assert np.array_equal(fr.parent, fr.root)


def test_spmv_rand_requires_rng():
    a = fig2_matrix()
    with pytest.raises(ValueError):
        a.spmv_frontier(unmatched_frontier(), SR_RAND_ROOT, rng=None)


def test_spmv_rand_parent_distribution():
    """Row 1 has candidates {0, 1, 4}: over many seeds each must appear."""
    a = fig2_matrix()
    seen = set()
    for seed in range(40):
        fr = a.spmv_frontier(unmatched_frontier(), SR_RAND_PARENT, np.random.default_rng(seed))
        seen.add(int(fr.parent[1]))
    assert seen == {0, 1, 4}


def test_spmv_roots_inherited_not_recomputed():
    """When the frontier's roots differ from its indices, winners must carry
    the inherited root."""
    a = fig2_matrix()
    fc = VertexFrontier(5, np.array([1]), np.array([1]), np.array([40 % 5]))  # root=0
    fr = a.spmv_frontier(fc, SR_MIN_PARENT)
    assert fr.idx.tolist() == [1, 2]
    assert fr.parent.tolist() == [1, 1]
    assert fr.root.tolist() == [0, 0]


def test_spmv_empty_frontier():
    a = fig2_matrix()
    fr = a.spmv_frontier(VertexFrontier.empty(5))
    assert fr.nnz == 0


def test_spmv_count_is_frontier_degree_sum():
    a = fig2_matrix()
    fc = unmatched_frontier()
    assert a.spmv_count(fc) == 2 + 2 + 3  # deg(c0)+deg(c1)+deg(c4)


def test_min_root_semiring():
    # Two frontier cols with swapped roots: minRoot must pick by root.
    a = fig2_matrix()
    fc = VertexFrontier(5, np.array([0, 1]), np.array([0, 1]), np.array([9 % 5, 0]))
    fr = a.spmv_frontier(fc, SR_MIN_ROOT)
    # row 1 adjacent to c0 (root 4) and c1 (root 0): minRoot -> c1
    assert fr.parent[fr.idx.tolist().index(1)] == 1


@pytest.mark.parametrize("sr", [SR_MIN_PARENT, SR_MAX_PARENT, SR_MIN_ROOT])
def test_csc_and_dcsc_spmv_agree(sr):
    """A block's SpMV is ``DCSC.explode_cols`` + the semiring reduction:
    the same (row, parent, root) candidates as ``CSC.explode_frontier``,
    hence the same reduced frontier."""
    rng = np.random.default_rng(3)
    coo = COO(50, 80, rng.integers(0, 50, 400), rng.integers(0, 80, 400))
    csc = CSC.from_coo(coo)
    dcsc = DCSC.from_coo(coo)
    fidx = np.unique(rng.integers(0, 80, 20))
    fc = VertexFrontier(80, fidx, fidx, rng.permutation(fidx))
    want = csc.explode_frontier(fc)[:3]
    got = dcsc.explode_cols(fc.idx, fc.parent, fc.root)
    for w, g in zip(want, got):
        assert np.array_equal(w, g)
    f1 = csc.spmv_frontier(fc, sr)
    ridx, rpar, rroot = reduce_candidates(*got, sr)
    assert np.array_equal(f1.idx, ridx)
    assert np.array_equal(f1.parent, rpar)
    assert np.array_equal(f1.root, rroot)


def test_dcsc_spmv_on_columns_absent_from_block():
    """Frontier columns that are empty in this block contribute nothing."""
    coo = coo_from_edges(4, 100, [(0, 10), (1, 20)])
    d = DCSC.from_coo(coo)
    rows, parents, roots = d.explode_cols(
        np.array([5, 10, 50]), np.array([5, 10, 50]), np.array([7, 8, 9]))
    assert rows.tolist() == [0]
    assert parents.tolist() == [10]
    assert roots.tolist() == [8]
    for cols in ([5, 50], []):
        cols = np.array(cols, np.int64)
        assert all(x.size == 0 for x in d.explode_cols(cols, cols, cols))


def test_reduce_candidates_empty():
    e = np.empty(0, np.int64)
    r, p, t = reduce_candidates(e, e, e)
    assert r.size == p.size == t.size == 0


def test_semiring_validation():
    with pytest.raises(ValueError):
        Semiring("bad", by="mate", mode="min")
    with pytest.raises(ValueError):
        Semiring("bad", by="parent", mode="median")


# -- the O(c) scatter fast path of reduce_candidates -------------------------


def _lexsort_reference(rows, parents, roots, semiring):
    """The pre-fast-path reduction: stable lexsort + first-per-row."""
    key = parents if semiring.by == "parent" else roots
    k = -key if semiring.mode == "max" else key
    order = np.lexsort((k, rows))
    rows, parents, roots = rows[order], parents[order], roots[order]
    first = np.empty(rows.size, dtype=bool)
    first[0] = True
    np.not_equal(rows[1:], rows[:-1], out=first[1:])
    return rows[first], parents[first], roots[first]


@pytest.mark.parametrize("sr", [SR_MIN_PARENT, SR_MAX_PARENT, SR_MIN_ROOT])
@pytest.mark.parametrize("seed", range(6))
def test_scatter_fast_path_matches_lexsort(sr, seed):
    """Dense row ranges (the hot path) must yield the lexsort's winners,
    including its first-arrival tie-breaking, bit for bit."""
    rng = np.random.default_rng(seed)
    c = int(rng.integers(1, 400))
    rows = rng.integers(0, max(1, c // 2), c)  # many ties per row
    parents = rng.integers(0, 50, c)           # many equal keys too
    roots = rng.integers(0, 50, c)
    got = reduce_candidates(rows, parents, roots, sr)
    want = _lexsort_reference(
        rows.astype(np.int64), parents.astype(np.int64), roots.astype(np.int64), sr
    )
    for g, w in zip(got, want):
        assert np.array_equal(g, w)


@pytest.mark.parametrize("sr", [SR_MIN_PARENT, SR_MAX_PARENT])
def test_scatter_fallback_on_wide_rows(sr):
    """Row ids spread over a huge range refuse the dense scratch and fall
    back to the lexsort — winners must be identical either way."""
    from repro.sparse.semiring import _reduce_scatter

    rng = np.random.default_rng(42)
    c = 64
    rows = rng.integers(0, 10**9, c)
    rows[:8] = rows[0]  # guarantee at least one contested row
    parents = rng.integers(0, 10**6, c)
    roots = rng.integers(0, 10**6, c)
    k = -parents if sr.mode == "max" else parents
    assert _reduce_scatter(rows, parents, roots, k.astype(np.int64)) is None
    got = reduce_candidates(rows, parents, roots, sr)
    want = _lexsort_reference(rows, parents.astype(np.int64), roots.astype(np.int64), sr)
    for g, w in zip(got, want):
        assert np.array_equal(g, w)


def test_scatter_fallback_on_huge_keys():
    """Keys too large to pack alongside the position also decline."""
    from repro.sparse.semiring import _reduce_scatter

    rows = np.arange(8, dtype=np.int64)
    huge = np.full(8, np.iinfo(np.int64).max // 4, dtype=np.int64)
    assert _reduce_scatter(rows, huge, huge, huge) is None
    r, p, t = reduce_candidates(rows, huge, huge, SR_MIN_PARENT)
    assert np.array_equal(r, rows) and np.array_equal(p, huge)


def test_scatter_single_candidate_and_negative_free():
    r, p, t = reduce_candidates(np.array([7]), np.array([3]), np.array([9]))
    assert (r.tolist(), p.tolist(), t.tolist()) == ([7], [3], [9])


# -- float-keyed payloads: the auction engine's (bid, bidder) pairs ----------


def test_float_keys_preserve_payload_dtypes():
    """(float64 bid, int64 bidder) pairs must come back in their own dtypes,
    not silently cast to int64 (which would truncate every bid)."""
    rows = np.array([4, 4, 9], dtype=np.int64)
    bids = np.array([1.25, 2.75, 0.5], dtype=np.float64)
    bidders = np.array([17, 3, 8], dtype=np.int64)
    r, p, t = reduce_candidates(rows, bids, bidders, SR_MAX_PARENT)
    assert p.dtype == np.float64 and t.dtype == np.int64
    assert r.tolist() == [4, 9]
    assert p.tolist() == [2.75, 0.5]
    assert t.tolist() == [3, 8]


def test_float_keys_decline_scatter_fast_path():
    """The packed (key, position) scatter is exact only for integer keys;
    float keys must route through the lexsort even on dense row ranges."""
    from repro.sparse.semiring import _reduce_scatter

    rows = np.arange(16, dtype=np.int64)
    bids = np.linspace(0.0, 1.0, 16)
    k = -bids
    assert not np.issubdtype(k.dtype, np.integer)
    # the guard in reduce_candidates keys off the dtype; the scatter itself
    # is never offered a float key.  Integer-valued floats through the full
    # kernel must still win correctly:
    r, p, t = reduce_candidates(rows, bids, np.arange(16), SR_MAX_PARENT)
    assert np.array_equal(p, bids)
    # and an int64 view of the same keys does use the scatter:
    ki = np.arange(16, dtype=np.int64)
    assert _reduce_scatter(rows, ki, ki, ki) is not None


@pytest.mark.parametrize("seed", range(4))
def test_float_and_integer_keys_agree_on_integral_values(seed):
    """Integer-valued float keys must pick the same winners as the same keys
    expressed as int64 — the two code paths (lexsort vs scatter) agree."""
    rng = np.random.default_rng(seed)
    c = 300
    rows = rng.integers(0, 60, c)
    keys = rng.integers(0, 40, c)
    roots = rng.integers(0, 1000, c)
    for sr in (SR_MIN_PARENT, SR_MAX_PARENT):
        ri, pi, ti = reduce_candidates(rows, keys, roots, sr)
        rf, pf, tf = reduce_candidates(rows, keys.astype(np.float64), roots, sr)
        assert np.array_equal(ri, rf)
        assert np.array_equal(pi.astype(np.float64), pf)
        assert np.array_equal(ti, tf)


def test_float_key_ties_resolve_to_first_arrival():
    """Equal float bids: the stable lexsort keeps the earliest candidate,
    which resolve_bids exploits (bidders pre-sorted => min-bidder wins)."""
    rows = np.array([2, 2, 2], dtype=np.int64)
    bids = np.array([5.5, 5.5, 5.5])
    bidders = np.array([30, 10, 20], dtype=np.int64)
    r, p, t = reduce_candidates(rows, bids, bidders, SR_MAX_PARENT)
    assert t.tolist() == [30]  # first arrival, not min value


def test_empty_reduction_preserves_payload_dtypes():
    r, p, t = reduce_candidates(
        np.empty(0, np.int64), np.empty(0, np.float64), np.empty(0, np.int32)
    )
    assert r.dtype == np.int64 and p.dtype == np.float64 and t.dtype == np.int32


def test_resolve_bids_ties_go_to_min_bidder():
    """The auction wrapper pre-sorts by bidder id, so equal highest bids on
    one item deterministically go to the smallest bidder — across any input
    order."""
    from repro.matching.auction import resolve_bids

    rows = np.array([5, 5, 5, 7], dtype=np.int64)
    bids = np.array([2.0, 2.0, 1.0, 3.5])
    bidders = np.array([42, 6, 1, 9], dtype=np.int64)
    r, b, w = resolve_bids(rows, bids, bidders)
    assert r.tolist() == [5, 7]
    assert b.tolist() == [2.0, 3.5]
    assert w.tolist() == [6, 9]
    # permuting the candidates must not change the winners
    perm = np.array([3, 1, 0, 2])
    r2, b2, w2 = resolve_bids(rows[perm], bids[perm], bidders[perm])
    assert np.array_equal(r, r2) and np.array_equal(b, b2) and np.array_equal(w, w2)
