"""``scatter_edges``: the one root scatter under both engines' matrices."""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.distmat import ProcGrid, scatter_edges
from repro.runtime import spmd
from repro.sparse import COO

GRIDS = [(1, 1), (1, 3), (2, 3), (3, 2)]


def _scatter_and_gather(comm, pr, pc, coo, values):
    grid = ProcGrid(comm, pr, pc)
    edges = (coo, *values) if comm.rank == 0 else (None,)
    geom, rows, cols, *vals = scatter_edges(grid, *edges)
    nr, nc = geom.block_shape
    assert rows.size == 0 or (0 <= rows.min() and rows.max() < nr)
    assert cols.size == 0 or (0 <= cols.min() and cols.max() < nc)
    assert all(v.size == rows.size for v in vals)
    pieces = comm.gather((rows + geom.row_lo, cols + geom.col_lo, *vals), root=0)
    by_alg = comm.stats.by_alg
    assert "bcast:binomial" not in by_alg
    return (geom.nrows, geom.ncols, geom.nnz), pieces, by_alg["scatter:direct"]["words"]


@st.composite
def edge_lists(draw):
    # shapes smaller than the grid leave whole blocks empty
    n1 = draw(st.integers(1, 12))
    n2 = draw(st.integers(1, 12))
    m = draw(st.integers(0, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    coo = COO(n1, n2, rng.integers(0, n1, m), rng.integers(0, n2, m))
    # each value names its edge, so a misaligned permutation is visible
    key = (coo.rows * n2 + coo.cols).astype(np.float64)
    return coo, [key + 0.25 * (k + 1) for k in range(draw(st.integers(0, 2)))]


@settings(max_examples=25, deadline=None)
@given(edge_lists(), st.sampled_from(GRIDS))
def test_scatter_edges_round_trips_edges_and_values(case, shape):
    coo, values = case
    pr, pc = shape
    res = spmd(pr * pc, _scatter_and_gather, pr, pc, coo, values)
    dims, pieces, _ = res[0]
    assert dims == (coo.nrows, coo.ncols, coo.nnz)
    rows, cols, *vals = (
        np.concatenate([p[k] for p in pieces]) for k in range(2 + len(values))
    )
    got, want = np.lexsort((cols, rows)), np.lexsort((coo.cols, coo.rows))
    np.testing.assert_array_equal(rows[got], coo.rows[want])
    np.testing.assert_array_equal(cols[got], coo.cols[want])
    for k, v in enumerate(vals):
        np.testing.assert_array_equal(v, rows * coo.ncols + cols + 0.25 * (k + 1))
    # no header broadcast: the shape's two words and the edge count ride
    # each of the p - 1 pieces the root sends, beside the edges' row and
    # column ids at their range's width and one word per edge and value
    sent = sum(_id_words(p[0]) + _id_words(p[1]) + p[0].size * len(values)
               for p in pieces[1:])
    assert sum(words for _, _, words in res) == (pr * pc - 1) * 3 + sent


def _id_words(ids):
    """The 8-byte words of a non-negative id array at the narrowest
    unsigned width holding its largest id."""
    return -(-ids.size * np.min_scalar_type(ids.max()).itemsize // 8) if ids.size else 0
