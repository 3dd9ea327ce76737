"""Property-based tests for the distributed layer: scatter/gather and SpMV
must agree with their serial counterparts for arbitrary matrices and grids."""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.distmat.distvec import DistDenseVec, DistVertexFrontier
from repro.distmat.grid import ProcGrid
from repro.distmat.ops import expand, route, spmv, spmv_expanded
from repro.distmat.spmat import DistSparseMatrix
from repro.runtime import SUM, spmd
from repro.sparse import COO, CSC, SR_MIN_PARENT, VertexFrontier
from repro.sparse.spvec import NULL

from ..helpers import gather_frontier

GRIDS = [(1, 1), (1, 3), (2, 2), (3, 2)]


@st.composite
def coo_and_grid(draw):
    n1 = draw(st.integers(1, 25))
    n2 = draw(st.integers(1, 25))
    nnz = draw(st.integers(0, 80))
    seed = draw(st.integers(0, 10_000))
    rng = np.random.default_rng(seed)
    coo = COO(n1, n2, rng.integers(0, n1, nnz), rng.integers(0, n2, nnz))
    pr, pc = draw(st.sampled_from(GRIDS))
    return coo, pr, pc


@settings(max_examples=15, deadline=None)
@given(coo_and_grid())
def test_scatter_gather_identity(args):
    coo, pr, pc = args

    def main(comm):
        grid = ProcGrid(comm, pr, pc)
        A = DistSparseMatrix.scatter_from_root(grid, coo if comm.rank == 0 else None)
        back = A.gather_to_root()
        if comm.rank == 0:
            return back == coo and comm.allreduce(A.local_nnz, op=SUM) == coo.nnz
        comm.allreduce(A.local_nnz, op=SUM)  # keep the collective schedule aligned
        return True

    assert all(spmd(pr * pc, main).values)


@settings(max_examples=15, deadline=None)
@given(coo_and_grid(), st.data())
def test_distributed_spmv_equals_serial(args, data):
    coo, pr, pc = args
    k = data.draw(st.integers(0, coo.ncols))
    fidx = np.array(sorted(data.draw(
        st.lists(st.integers(0, coo.ncols - 1), unique=True, max_size=k)
    )), dtype=np.int64)
    serial = CSC.from_coo(coo).spmv_frontier(
        VertexFrontier.roots_of_self(coo.ncols, fidx), SR_MIN_PARENT
    )

    def main(comm):
        grid = ProcGrid(comm, pr, pc)
        A = DistSparseMatrix.scatter_from_root(grid, coo if comm.rank == 0 else None)
        probe = DistDenseVec(grid, coo.ncols, "col")
        mine = fidx[(fidx >= probe.lo) & (fidx < probe.hi)]
        fc = DistVertexFrontier(grid, coo.ncols, "col", mine, mine, mine)
        fr = spmv(A, fc)
        return gather_frontier(fr)

    gi, gp, gr = spmd(pr * pc, main)[0]
    assert np.array_equal(gi, serial.idx)
    assert np.array_equal(gp, serial.parent)
    assert np.array_equal(gr, serial.root)


@settings(max_examples=15, deadline=None)
@given(coo_and_grid(), st.integers(0, 10_000))
def test_home_fold_lands_each_row_on_its_home(args, seed):
    """Given the row block's mates, the fold delivers a matched row's winner
    to its home — the rank of its grid row in its mate's column block — and
    nowhere else, and a free row's to every rank of its grid row; the
    winners are the serial SpMV's, and every rank of a grid row learns each
    row of its row block that got a candidate."""
    coo, pr, pc = args
    rng = np.random.default_rng(seed)
    fidx = np.flatnonzero(rng.random(coo.ncols) < 0.5)
    mates = np.where(rng.random(coo.nrows) < 0.5, rng.integers(0, coo.ncols, coo.nrows), NULL)
    serial = CSC.from_coo(coo).spmv_frontier(
        VertexFrontier.roots_of_self(coo.ncols, fidx), SR_MIN_PARENT
    )

    def main(comm):
        grid = ProcGrid(comm, pr, pc)
        A = DistSparseMatrix.scatter_from_root(grid, coo if comm.rank == 0 else None)
        probe = DistDenseVec(grid, coo.ncols, "col")
        mine = fidx[(fidx >= probe.lo) & (fidx < probe.hi)]
        nfront, scanned, seen, *fr = spmv_expanded(
            A, *expand(A, mine, mine), home=mates[A.row_lo:A.row_hi]
        )
        reached = serial.idx[(serial.idx >= A.row_lo) & (serial.idx < A.row_hi)]
        assert np.array_equal(np.unique(seen + A.row_lo), reached)
        return nfront, scanned, grid.i, grid.j, A.rowmap, A.colmap, fr

    got = {}
    res = spmd(pr * pc, main).values
    # the blocks together scan every edge of the frontier's columns once
    assert sum(r[1] for r in res) == CSC.from_coo(coo).spmv_count(
        VertexFrontier.roots_of_self(coo.ncols, fidx)
    )
    for nfront, _, i, j, rowmap, colmap, (rows, parents, roots) in res:
        assert nfront == fidx.size
        assert (rowmap.owner(rows) == i).all() if rows.size else True
        for r, par, root in zip(rows.tolist(), parents.tolist(), roots.tolist()):
            got.setdefault(r, []).append((j, par, root))
    assert sorted(got) == serial.idx.tolist()
    for r, par, root in zip(serial.idx.tolist(), serial.parent.tolist(), serial.root.tolist()):
        homes = range(pc) if mates[r] == NULL else [colmap.owner(int(mates[r]))]
        assert got[r] == [(j, par, root) for j in homes]


@settings(max_examples=15, deadline=None)
@given(st.integers(1, 6), st.integers(0, 30), st.integers(0, 10_000))
def test_route_conserves_and_delivers(p, n, seed):
    """Routing arbitrary (dest, value) pairs loses nothing and delivers each
    value to exactly its destination."""
    rng = np.random.default_rng(seed)
    dests = [rng.integers(0, p, n) for _ in range(p)]
    values = [rng.integers(0, 1000, n) for _ in range(p)]

    def main(comm):
        (got,) = route(comm, dests[comm.rank], values[comm.rank])
        return sorted(got.tolist())

    res = spmd(p, main)
    for r in range(p):
        expected = sorted(
            int(v) for src in range(p)
            for v, d in zip(values[src], dests[src]) if d == r
        )
        assert res[r] == expected


@st.composite
def coo_grid_and_state(draw):
    """A random matrix, grid shape, frontier and visited-state vector."""
    coo, pr, pc = draw(coo_and_grid())
    seed = draw(st.integers(0, 10_000))
    rng = np.random.default_rng(seed)
    k = draw(st.integers(0, coo.ncols))
    fidx = np.sort(rng.choice(coo.ncols, size=min(k, coo.ncols), replace=False))
    # arbitrary partial visited state: ~half the rows already have parents
    pi = np.where(rng.random(coo.nrows) < 0.5, np.int64(0), np.int64(NULL))
    return coo, pr, pc, fidx.astype(np.int64), pi


def _first_hits(block, rows, frontier):
    """The early-exit pull by hand: (rows with a frontier column, edges
    read), each row reading its block columns ascending up to the first."""
    coo = block.to_coo()
    hit, read = [], 0
    for r in rows.tolist():
        for c in sorted(coo.cols[coo.rows == r].tolist()):
            read += 1
            if c in frontier:
                hit.append(r)
                break
    return hit, read


@settings(max_examples=15, deadline=None)
@given(coo_grid_and_state(), st.integers(0, 10_000))
def test_distributed_bottomup_equals_filtered_topdown(args, seed):
    """A pull over any superset of the unvisited rows yields, on those rows,
    the serial SpMV's winners, and each block reads its rows' edges only up
    to their first frontier column; a top-down step over the same mask
    sends the same candidates — the invariant that lets every block choose
    its direction alone."""
    coo, pr, pc, fidx, pi = args
    serial = CSC.from_coo(coo).spmv_frontier(
        VertexFrontier.roots_of_self(coo.ncols, fidx), SR_MIN_PARENT
    )
    keep = pi[serial.idx] == NULL
    want = serial.idx[keep], serial.parent[keep], serial.root[keep]
    # what a block has not seen visited: the unvisited rows and some others
    unseen = (pi == NULL) | (np.random.default_rng(seed).random(coo.nrows) < 0.3)

    def main(comm):
        grid = ProcGrid(comm, pr, pc)
        A = DistSparseMatrix.scatter_from_root(grid, coo if comm.rank == 0 else None)
        probe = DistDenseVec(grid, coo.ncols, "col")
        mine = fidx[(fidx >= probe.lo) & (fidx < probe.hi)]
        mask = unseen[A.row_lo:A.row_hi].copy()
        front = expand(A, mine, mine)
        nfront, scanned, sent, *fr = spmv_expanded(A, *front, unseen=mask, pull=True)
        hit, read = _first_hits(
            A.block, np.flatnonzero(mask), set((fidx - A.col_lo).tolist())
        )
        assert sent.tolist() == hit and scanned == read
        _, _, td_sent, *td_fr = spmv_expanded(A, *front, unseen=mask)
        assert td_sent.tolist() == hit
        for got, want in zip(td_fr, fr):
            np.testing.assert_array_equal(got, want)
        frontier = gather_frontier(DistVertexFrontier(grid, coo.nrows, "row", *fr))
        return nfront, frontier

    res = spmd(pr * pc, main)
    # the counts riding the fold add up to the global frontier on every rank
    assert {nfront for nfront, _ in res} == {fidx.size}
    gi, gp, gr = res[0][1]
    fresh = pi[gi] == NULL
    assert np.array_equal(gi[fresh], want[0])
    assert np.array_equal(gp[fresh], want[1])
    assert np.array_equal(gr[fresh], want[2])


@settings(max_examples=15, deadline=None)
@given(coo_grid_and_state())
def test_direction_edge_counts_match_serial(args):
    """The two counts a block compares to choose its direction — its
    frontier columns' edges and its unvisited rows' edges, read off the
    block's own degrees — are exactly what its top-down explode reads, and
    over the grid they add up to the serial quantities."""
    coo, pr, pc, fidx, pi = args
    a = CSC.from_coo(coo)
    want_td = a.spmv_count(VertexFrontier.roots_of_self(coo.ncols, fidx))
    want_bu = int(a.row_degrees()[pi == NULL].sum())

    def main(comm):
        grid = ProcGrid(comm, pr, pc)
        A = DistSparseMatrix.scatter_from_root(grid, coo if comm.rank == 0 else None)
        probe = DistDenseVec(grid, coo.ncols, "col")
        mine = fidx[(fidx >= probe.lo) & (fidx < probe.hi)]
        bcols, broots = expand(A, mine, mine)
        td = int(A.block.col_degrees()[bcols - A.col_lo].sum())
        bu = int(A.block.row_degrees()[pi[A.row_lo:A.row_hi] == NULL].sum())
        assert spmv_expanded(A, bcols, broots)[1] == td
        return td, bu

    res = spmd(pr * pc, main)
    assert tuple(map(sum, zip(*res.values))) == (want_td, want_bu)
