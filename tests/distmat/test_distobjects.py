"""Distributed vectors/matrices: scatter, locality, round trips, SpMV."""

import numpy as np
import pytest

from repro.distmat.distvec import DistDenseVec, DistVertexFrontier
from repro.distmat.grid import ProcGrid
from repro.distmat.ops import invert_route, route, spmv
from repro.distmat.spmat import DistSparseMatrix
from repro.runtime import SUM, spmd
from repro.sparse import COO, CSC, SR_MIN_PARENT, VertexFrontier
from repro.sparse.spvec import NULL

from ..helpers import gather_frontier


def random_coo(n1, n2, m, seed):
    rng = np.random.default_rng(seed)
    return COO(n1, n2, rng.integers(0, n1, m), rng.integers(0, n2, m))


# -- DistDenseVec -----------------------------------------------------------------

def test_dense_vec_round_trip():
    arr = np.arange(37, dtype=np.int64) * 3

    def main(comm):
        grid = ProcGrid(comm, 2, 2)
        v = DistDenseVec(grid, arr.size, "col")
        assert v.hi - v.lo == v.local.size
        v.local[:] = arr[v.lo:v.hi]
        return v.assemble(comm.allgather((v.lo, v.local))).tolist()

    res = spmd(4, main)
    for out in res:
        assert out == arr.tolist()


def test_dense_vec_owner_covers_all_ranks_exactly():
    def main(comm):
        grid = ProcGrid(comm, 2, 3)
        v = DistDenseVec(grid, 50, "row")
        owners = v.owner_of(np.arange(50))
        mine = np.flatnonzero(owners == comm.rank)
        assert (mine >= v.lo).all() and (mine < v.hi).all()
        assert mine.size == v.hi - v.lo
        return int(mine.size)

    res = spmd(6, main)
    assert sum(res.values) == 50


def test_dense_vec_local_get_set():
    def main(comm):
        grid = ProcGrid(comm, 1, 2)
        v = DistDenseVec(grid, 10, "col")
        mine = np.arange(v.lo, v.hi)
        v.set_local(mine, mine * 7)
        assert np.array_equal(v.get_local(mine), mine * 7)
        return v.assemble(comm.allgather((v.lo, v.local))).tolist()

    res = spmd(2, main)
    assert res[0] == [i * 7 for i in range(10)]


# -- DistVertexFrontier --------------------------------------------------------------

def test_frontier_rejects_out_of_range_entries():
    def main(comm):
        grid = ProcGrid(comm, 1, 2)
        # global idx 0 belongs to rank 0; rank 1 claiming it must fail
        if comm.rank == 1:
            with pytest.raises(ValueError):
                DistVertexFrontier(grid, 10, "col", np.array([0]), np.array([0]), np.array([0]))
        return None

    spmd(2, main)


def test_frontier_gather():
    def main(comm):
        grid = ProcGrid(comm, 1, 2)
        v = DistDenseVec(grid, 10, "col")
        idx = np.arange(v.lo, v.hi, 2)  # ranks own [0,5) and [5,10): 0,2,4 + 5,7,9
        f = DistVertexFrontier(grid, 10, "col", idx, idx, idx)
        gi, gp, gr = gather_frontier(f)
        return gi.tolist()

    res = spmd(2, main)
    assert res[0] == [0, 2, 4, 5, 7, 9]


# -- route / invert_route --------------------------------------------

def test_route_delivers_by_destination():
    def main(comm):
        data = np.arange(4, dtype=np.int64) + 10 * comm.rank
        dest = np.arange(4, dtype=np.int64) % comm.size
        (got,) = route(comm, dest, data)
        # rank r receives items with index % size == r from every rank
        expected = sorted(x for src in range(comm.size) for x in range(10 * src, 10 * src + 4) if x % 10 % comm.size == comm.rank)
        return sorted(got.tolist()) == expected

    res = spmd(4, main)
    assert all(res.values)


def test_invert_route_targets_value_owner():
    def main(comm):
        grid = ProcGrid(comm, 2, 2)
        target_vec = DistDenseVec(grid, 20, "col")
        # every rank sends (target=rank-local pattern, value)
        targets = np.array([comm.rank * 5 % 20, (comm.rank * 5 + 3) % 20], dtype=np.int64)
        values = targets * 2
        t, v = invert_route(grid, targets, values, target_vec)
        assert (t >= target_vec.lo).all() and (t < target_vec.hi).all() if t.size else True
        assert np.array_equal(v, t * 2)
        return t.size

    res = spmd(4, main)
    assert sum(res.values) == 8


# -- DistSparseMatrix --------------------------------------------------------------

@pytest.mark.parametrize("pr,pc", [(1, 1), (2, 2), (2, 3), (3, 2)])
def test_scatter_gather_round_trip(pr, pc):
    coo = random_coo(23, 31, 150, 5)

    def main(comm):
        grid = ProcGrid(comm, pr, pc)
        A = DistSparseMatrix.scatter_from_root(grid, coo if comm.rank == 0 else None)
        assert comm.allreduce(A.local_nnz, op=SUM) == coo.nnz
        back = A.gather_to_root()
        if comm.rank == 0:
            return back == coo
        return True

    res = spmd(pr * pc, main)
    assert all(res.values)


def test_blocks_hold_only_local_indices():
    coo = random_coo(20, 20, 100, 7)

    def main(comm):
        grid = ProcGrid(comm, 2, 2)
        A = DistSparseMatrix.scatter_from_root(grid, coo if comm.rank == 0 else None)
        blk = A.block
        assert blk.nrows == A.row_hi - A.row_lo
        assert blk.ncols == A.col_hi - A.col_lo
        if blk.nnz:
            assert blk.ir.max() < blk.nrows
            assert blk.jc.max() < blk.ncols
        return blk.nnz

    res = spmd(4, main)
    assert sum(res.values) == coo.nnz


# -- distributed SpMV ---------------------------------------------------------------

@pytest.mark.parametrize("pr,pc", [(1, 1), (2, 2), (3, 3), (2, 3)])
# the distributed SpMV reduces under minParent only; the single-valued
# ``sr`` parameter keeps the surviving leg's test ids
@pytest.mark.parametrize("sr", [SR_MIN_PARENT])
def test_distributed_spmv_matches_serial(pr, pc, sr):
    coo = random_coo(40, 50, 300, 11)
    serial = CSC.from_coo(coo)
    fidx = np.unique(np.random.default_rng(3).integers(0, 50, 15))
    expected = serial.spmv_frontier(VertexFrontier.roots_of_self(50, fidx), sr)

    def main(comm):
        grid = ProcGrid(comm, pr, pc)
        A = DistSparseMatrix.scatter_from_root(grid, coo if comm.rank == 0 else None)
        # build the distributed frontier: each rank takes its slice
        fvec = DistDenseVec(grid, 50, "col")
        mine = fidx[(fidx >= fvec.lo) & (fidx < fvec.hi)]
        fc = DistVertexFrontier(grid, 50, "col", mine, mine, mine)
        fr = spmv(A, fc)
        return gather_frontier(fr)

    res = spmd(pr * pc, main)
    gi, gp, gr = res[0]
    assert np.array_equal(gi, expected.idx)
    assert np.array_equal(gp, expected.parent)
    assert np.array_equal(gr, expected.root)


def test_spmv_empty_frontier():
    coo = random_coo(10, 10, 40, 1)

    def main(comm):
        grid = ProcGrid(comm, 2, 2)
        A = DistSparseMatrix.scatter_from_root(grid, coo if comm.rank == 0 else None)
        fc = DistVertexFrontier(grid, 10, "col")
        fr = spmv(A, fc)
        return fr.idx.size

    res = spmd(4, main)
    assert sum(res.values) == 0


def test_spmv_rejects_row_frontier():
    coo = random_coo(10, 10, 40, 1)

    def main(comm):
        grid = ProcGrid(comm, 1, 1)
        A = DistSparseMatrix.scatter_from_root(grid, coo)
        bad = DistVertexFrontier(grid, 10, "row")
        spmv(A, bad)

    with pytest.raises(ValueError):
        spmd(1, main, timeout=10.0)
