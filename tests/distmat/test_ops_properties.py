"""Property-based tests for the distributed layer: scatter/gather and SpMV
must agree with their serial counterparts for arbitrary matrices and grids."""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.distmat.distvec import DistDenseVec, DistVertexFrontier
from repro.distmat.grid import ProcGrid
from repro.distmat.ops import (
    expand, local_edge_counts, route, spmv, spmv_bottomup_expanded, spmv_expanded,
)
from repro.distmat.spmat import DistSparseMatrix
from repro.runtime import SUM, spmd
from repro.sparse import COO, CSC, SR_MIN_PARENT, VertexFrontier
from repro.sparse.spvec import NULL

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
            return back == coo and A.global_nnz() == coo.nnz
        A.global_nnz()  # keep the collective schedule aligned
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
        return fr.to_global_arrays()

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
    winners are the serial SpMV's."""
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
        nfront, scanned, *fr = spmv_expanded(
            A, *expand(A, mine, mine), home=mates[A.row_lo:A.row_hi]
        )
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


def _unvisited(pi_r):
    """The unvisited rows of the slice a rank owns: each row on one rank."""
    return np.flatnonzero(pi_r.local == NULL) + pi_r.lo


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


@settings(max_examples=15, deadline=None)
@given(coo_grid_and_state())
def test_distributed_bottomup_equals_filtered_topdown(args):
    """spmv_bottomup_expanded == serial SpMV restricted to unvisited rows, for any
    visited state — the invariant behind the direction switch."""
    coo, pr, pc, fidx, pi = args
    serial = CSC.from_coo(coo).spmv_frontier(
        VertexFrontier.roots_of_self(coo.ncols, fidx), SR_MIN_PARENT
    )
    keep = pi[serial.idx] == NULL
    want = serial.idx[keep], serial.parent[keep], serial.root[keep]

    def main(comm):
        grid = ProcGrid(comm, pr, pc)
        A = DistSparseMatrix.scatter_from_root(grid, coo if comm.rank == 0 else None)
        pi_r = DistDenseVec.from_global(grid, pi, "row")
        probe = DistDenseVec(grid, coo.ncols, "col")
        mine = fidx[(fidx >= probe.lo) & (fidx < probe.hi)]
        nfront, scanned, *fr = spmv_bottomup_expanded(
            A, *expand(A, mine, mine), _unvisited(pi_r)
        )
        frontier = DistVertexFrontier(grid, coo.nrows, "row", *fr).to_global_arrays()
        return nfront, scanned, frontier

    res = spmd(pr * pc, main)
    # the counts riding the fold add up to the global frontier on every rank
    assert {nfront for nfront, _, _ in res} == {fidx.size}
    # the blocks together scan every edge of the unvisited rows once
    assert sum(scanned for _, scanned, _ in res) == int(
        CSC.from_coo(coo).row_degrees()[pi == NULL].sum()
    )
    gi, gp, gr = res[0][2]
    assert np.array_equal(gi, want[0])
    assert np.array_equal(gp, want[1])
    assert np.array_equal(gr, want[2])


@settings(max_examples=15, deadline=None)
@given(coo_grid_and_state())
def test_direction_edge_counts_match_serial(args):
    """The switch rule's allreduced counts equal the serial quantities, and
    every rank sees the same pair."""
    coo, pr, pc, fidx, pi = args
    a = CSC.from_coo(coo)
    want_td = a.spmv_count(VertexFrontier.roots_of_self(coo.ncols, fidx))
    want_bu = int(a.row_degrees()[pi == NULL].sum())

    def main(comm):
        grid = ProcGrid(comm, pr, pc)
        A = DistSparseMatrix.scatter_from_root(grid, coo if comm.rank == 0 else None)
        pi_r = DistDenseVec.from_global(grid, pi, "row")
        probe = DistDenseVec(grid, coo.ncols, "col")
        mine = fidx[(fidx >= probe.lo) & (fidx < probe.hi)]
        td, bu = comm.allreduce(local_edge_counts(A, mine, _unvisited(pi_r)), op=SUM)
        # the cache is collective-on-first-call: a second read is local
        assert A.degree_blocks() is A.degree_blocks()
        return int(td), int(bu)

    res = spmd(pr * pc, main)
    assert all(r == (want_td, want_bu) for r in res.values)
