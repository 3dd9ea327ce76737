"""Collective operations: results must equal their NumPy-computed oracles
for every rank count, including non-powers of two."""

import numpy as np
import pytest

from repro.runtime import SUM, CollectiveMismatchError, ReduceOp, spmd

# the runtime predefines only SUM; user-defined operators ride the same trees
MIN = ReduceOp("min", np.minimum)
MAX = ReduceOp("max", np.maximum)
PROD = ReduceOp("prod", lambda a, b: a * b)

SIZES = [1, 2, 3, 4, 5, 7, 8]


def test_single_rank_returns_value():
    res = spmd(1, lambda comm: comm.rank * 10 + comm.size)
    assert res[0] == 1
    assert res.nranks == 1


@pytest.mark.parametrize("p", SIZES)
def test_barrier_completes(p):
    res = spmd(p, lambda comm: comm.barrier() or comm.rank)
    assert res.values == list(range(p))


@pytest.mark.parametrize("p", SIZES)
@pytest.mark.parametrize("root", [0, "last"])
def test_bcast(p, root):
    root = p - 1 if root == "last" else 0

    def main(comm):
        payload = np.arange(5) * 3 if comm.rank == root else None
        got = comm.bcast(payload, root=root)
        return got.tolist()

    res = spmd(p, main)
    for v in res:
        assert v == [0, 3, 6, 9, 12]


def test_bcast_returns_private_copies():
    def main(comm):
        payload = np.zeros(4) if comm.rank == 0 else None
        got = comm.bcast(payload, root=0)
        got += comm.rank  # mutating my copy must not leak to other ranks
        comm.barrier()
        return float(got.sum())

    res = spmd(4, main)
    assert res.values == [0.0, 4.0, 8.0, 12.0]


@pytest.mark.parametrize("p", SIZES)
def test_gather(p):
    def main(comm):
        return comm.gather(comm.rank ** 2, root=0)

    res = spmd(p, main)
    assert res[0] == [r ** 2 for r in range(p)]
    for r in range(1, p):
        assert res[r] is None


@pytest.mark.parametrize("p", SIZES)
def test_gatherv_variable_sizes(p):
    def main(comm):
        piece = np.full(comm.rank + 1, comm.rank)
        out = comm.gather(piece, root=0)
        if comm.rank == 0:
            return np.concatenate(out).tolist()
        return None

    res = spmd(p, main)
    expected = [r for r in range(p) for _ in range(r + 1)]
    assert res[0] == expected


@pytest.mark.parametrize("p", SIZES)
def test_scatter(p):
    def main(comm):
        payloads = [i * 10 for i in range(comm.size)] if comm.rank == 0 else None
        return comm.scatter(payloads, root=0)

    res = spmd(p, main)
    assert res.values == [i * 10 for i in range(p)]


def test_scatter_wrong_count_raises():
    def main(comm):
        payloads = [0] if comm.rank == 0 else None
        comm.scatter(payloads, root=0)

    with pytest.raises(ValueError):
        spmd(3, main, timeout=1.0)


@pytest.mark.parametrize("p", SIZES)
def test_allgather(p):
    def main(comm):
        out = comm.allgather(np.array([comm.rank, comm.rank * 2]))
        return np.concatenate(out).tolist()

    res = spmd(p, main)
    expected = [x for r in range(p) for x in (r, r * 2)]
    for v in res:
        assert v == expected


@pytest.mark.parametrize("p", SIZES)
def test_alltoall(p):
    """Rank r sends r*size+j to rank j; rank j must hold column j of that
    matrix afterwards."""

    def main(comm):
        payloads = [comm.rank * comm.size + j for j in range(comm.size)]
        return comm.alltoall(payloads)

    res = spmd(p, main)
    for j in range(p):
        assert res[j] == [r * p + j for r in range(p)]


@pytest.mark.parametrize("p", SIZES)
def test_alltoallv_variable_arrays(p):
    def main(comm):
        payloads = [np.full(j, comm.rank) for j in range(comm.size)]
        got = comm.alltoallv(payloads)
        return [g.tolist() for g in got]

    res = spmd(p, main)
    for j in range(p):
        assert res[j] == [[r] * j for r in range(p)]


def test_alltoall_wrong_count_raises():
    with pytest.raises(ValueError):
        spmd(3, lambda comm: comm.alltoall([1, 2]), timeout=1.0)


@pytest.mark.parametrize("p", SIZES)
@pytest.mark.parametrize("op,expected_fn", [
    (SUM, lambda p: sum(range(p))),
    (MIN, lambda p: 0),
    (MAX, lambda p: p - 1),
    (PROD, lambda p: 0 if p > 0 else 1),
])
def test_reduce(p, op, expected_fn):
    def main(comm):
        return comm.reduce(comm.rank, op=op, root=0)

    res = spmd(p, main)
    assert res[0] == expected_fn(p)
    for r in range(1, p):
        assert res[r] is None


@pytest.mark.parametrize("p", SIZES)
def test_reduce_nonzero_root(p):
    root = p // 2

    def main(comm):
        return comm.reduce(np.array([comm.rank, 1]), op=SUM, root=root)

    res = spmd(p, main)
    assert res[root].tolist() == [sum(range(p)), p]


@pytest.mark.parametrize("p", SIZES)
def test_allreduce(p):
    def main(comm):
        return comm.allreduce(comm.rank + 1, op=SUM)

    res = spmd(p, main)
    for v in res:
        assert v == p * (p + 1) // 2


@pytest.mark.parametrize("p", SIZES)
def test_allreduce_min_on_arrays(p):
    def main(comm):
        v = np.array([comm.rank, -comm.rank, 5])
        return comm.allreduce(v, op=MIN).tolist()

    res = spmd(p, main)
    for v in res:
        assert v == [0, -(p - 1), 5]


def test_collective_mismatch_detected():
    """Ranks entering different collectives with matching sequence numbers
    must fail loudly, not exchange garbage."""

    def main(comm):
        if comm.rank == 0:
            comm.bcast(1, root=0)
        else:
            comm.reduce(1, root=0)

    with pytest.raises((CollectiveMismatchError, Exception)):
        spmd(2, main, timeout=0.5)


def test_split_into_row_communicators():
    """4 ranks -> 2x2 grid: split by row index, then allgather inside rows."""

    def main(comm):
        row = comm.rank // 2
        rowcomm = comm.split(color=row)
        assert rowcomm.size == 2
        got = rowcomm.allgather(comm.rank)
        return (row, rowcomm.rank, got)

    res = spmd(4, main)
    assert res[0] == (0, 0, [0, 1])
    assert res[1] == (0, 1, [0, 1])
    assert res[2] == (1, 0, [2, 3])
    assert res[3] == (1, 1, [2, 3])


def test_split_key_reorders_ranks():
    def main(comm):
        sub = comm.split(color=0, key=-comm.rank)  # reverse order
        return sub.rank

    res = spmd(4, main)
    assert res.values == [3, 2, 1, 0]


def _grid_comm_ids(comm):
    i, j = divmod(comm.rank, 3)
    return comm.split(color=i).comm_id, comm.split(color=j).comm_id


def test_split_ids_are_a_function_of_the_arguments():
    """Comm rank 0 draws the child ids in ascending-colour order, so a 3x3
    grid's (row, column) ids are the same in every run and on both
    backends — not whatever order the ranks happened to arrive in."""
    expected = [(1 + i, 4 + j) for i in range(3) for j in range(3)]
    assert spmd(9, _grid_comm_ids, backend="process").values == expected
    for _ in range(50):
        assert spmd(9, _grid_comm_ids, backend="thread").values == expected


@pytest.mark.parametrize("backend", ["thread", "process"])
def test_split_against_another_collective_is_a_mismatch(backend):
    """split's rendezvous rides the collective tag and wrapper, so a peer
    sitting in another collective names it at once — no ``verify=True``,
    no waiting out the deadlock window."""

    def main(comm):
        if comm.rank == 1:
            comm.split(color=0)
        else:
            comm.bcast(None, root=1)

    with pytest.raises(CollectiveMismatchError, match=r"received split#1 from rank 1"):
        spmd(2, main, timeout=5.0, backend=backend)


def test_nested_split_grid_rows_and_cols():
    """Simulate the 2D grid decomposition used by distmat: a 3x3 grid where
    each rank joins both a row and a column communicator, and a sum over the
    row then the column equals the global sum."""

    def main(comm):
        pr = 3
        i, j = divmod(comm.rank, pr)
        rowc = comm.split(color=i)
        colc = comm.split(color=j)
        row_sum = rowc.allreduce(comm.rank, op=SUM)
        total = colc.allreduce(row_sum, op=SUM)
        return total

    res = spmd(9, main)
    for v in res:
        assert v == sum(range(9))


def test_collectives_on_subcommunicator_are_isolated():
    """Concurrent collectives on disjoint sub-communicators must not
    interfere even though they share the fabric."""

    def main(comm):
        sub = comm.split(color=comm.rank % 2)
        acc = 0
        for _ in range(10):
            acc += sub.allreduce(1, op=SUM)
        return acc

    res = spmd(6, main)
    for v in res:
        assert v == 30
