"""Process grid and distribution maps."""

import numpy as np
import pytest

from repro.distmat.vecmap import BlockMap, VecMap
from repro.distmat.grid import ProcGrid
from repro.runtime import spmd


# -- BlockMap ---------------------------------------------------------------------

def test_blockmap_partitions_range():
    bm = BlockMap(10, 3)  # blocks of 4: [0,4) [4,8) [8,10)
    assert [bm.range(p) for p in range(3)] == [(0, 4), (4, 8), (8, 10)]
    assert sum(bm.size(p) for p in range(3)) == 10


def test_blockmap_owner_matches_ranges():
    bm = BlockMap(23, 5)
    for g in range(23):
        p = bm.owner(g)
        lo, hi = bm.range(p)
        assert lo <= g < hi


def test_blockmap_vectorized_owner():
    bm = BlockMap(100, 7)
    g = np.arange(100)
    owners = bm.owner(g)
    assert owners.min() >= 0 and owners.max() < 7


def test_blockmap_more_parts_than_items():
    bm = BlockMap(3, 8)
    sizes = [bm.size(p) for p in range(8)]
    assert sum(sizes) == 3
    assert bm.owner(2) < 8


def test_blockmap_validation():
    with pytest.raises(ValueError):
        BlockMap(5, 0)


# -- VecMap -----------------------------------------------------------------------

@pytest.mark.parametrize("n,blocks,subs", [(100, 4, 3), (17, 3, 5), (5, 2, 2), (64, 1, 1)])
def test_vecmap_ranges_partition_the_vector(n, blocks, subs):
    vm = VecMap(n, blocks, subs)
    covered = np.zeros(n, dtype=int)
    for b in range(blocks):
        for s in range(subs):
            lo, hi = vm.local_range(s, b)
            covered[lo:hi] += 1
    assert (covered == 1).all()


@pytest.mark.parametrize("n,blocks,subs", [(100, 4, 3), (17, 3, 5), (5, 2, 2)])
def test_vecmap_owner_consistent_with_ranges(n, blocks, subs):
    vm = VecMap(n, blocks, subs)
    g = np.arange(n)
    sub, block = vm.owner(g)
    for gi, s, b in zip(g, sub, block):
        lo, hi = vm.local_range(int(s), int(b))
        assert lo <= gi < hi


# -- ProcGrid ---------------------------------------------------------------------

def test_grid_coordinates_and_subcomms():
    def main(comm):
        grid = ProcGrid(comm, 2, 3)
        assert grid.i * grid.pc + grid.j == comm.rank  # row-major
        # row communicator spans my grid row
        members = grid.rowcomm.allgather(comm.rank)
        assert members == [grid.i * 3 + j for j in range(3)]
        # column communicator spans my grid column
        members = grid.colcomm.allgather(comm.rank)
        assert members == [i * 3 + grid.j for i in range(2)]
        return (grid.i, grid.j)

    res = spmd(6, main)
    assert res.values == [(0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (1, 2)]


def test_grid_size_mismatch():
    def main(comm):
        ProcGrid(comm, 2, 2)

    with pytest.raises(ValueError):
        spmd(6, main, timeout=5.0)
