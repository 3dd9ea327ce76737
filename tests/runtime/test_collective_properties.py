"""Property-based tests: collectives must equal their sequential oracles for
arbitrary payload shapes, rank counts and roots."""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.runtime import SUM, ReduceOp, spmd

MIN = ReduceOp("min", np.minimum)
MAX = ReduceOp("max", np.maximum)


@st.composite
def payload_matrix(draw, max_p=6, max_len=6):
    """One integer array per rank (possibly different lengths per test but
    equal across ranks, as collectives require)."""
    p = draw(st.integers(1, max_p))
    n = draw(st.integers(0, max_len))
    rows = draw(
        st.lists(
            st.lists(st.integers(-1000, 1000), min_size=n, max_size=n),
            min_size=p, max_size=p,
        )
    )
    return p, [np.array(r, dtype=np.int64) for r in rows]


@settings(max_examples=25, deadline=None)
@given(payload_matrix(), st.data())
def test_bcast_any_root(pm, data):
    p, rows = pm
    root = data.draw(st.integers(0, p - 1))

    def main(comm):
        got = comm.bcast(rows[comm.rank] if comm.rank == root else None, root=root)
        return got.tolist()

    res = spmd(p, main)
    for v in res:
        assert v == rows[root].tolist()


@settings(max_examples=25, deadline=None)
@given(payload_matrix(), st.data())
def test_reduce_and_allreduce_match_numpy(pm, data):
    p, rows = pm
    root = data.draw(st.integers(0, p - 1))
    op, np_fn = data.draw(st.sampled_from([
        (SUM, lambda arrs: np.sum(arrs, axis=0)),
        (MIN, lambda arrs: np.min(arrs, axis=0)),
        (MAX, lambda arrs: np.max(arrs, axis=0)),
    ]))
    expected = np_fn(np.stack(rows)).tolist() if rows[0].size else []

    def main(comm):
        r = comm.reduce(rows[comm.rank], op=op, root=root)
        ar = comm.allreduce(rows[comm.rank], op=op)
        return (None if r is None else r.tolist(), ar.tolist())

    res = spmd(p, main)
    assert res[root][0] == expected
    for r, ar in res:
        assert ar == expected
    for rank in range(p):
        if rank != root:
            assert res[rank][0] is None


@settings(max_examples=25, deadline=None)
@given(payload_matrix())
def test_allgather_preserves_rank_order(pm):
    p, rows = pm

    def main(comm):
        return [x.tolist() for x in comm.allgather(rows[comm.rank])]

    res = spmd(p, main)
    expected = [r.tolist() for r in rows]
    for v in res:
        assert v == expected


@settings(max_examples=25, deadline=None)
@given(st.integers(1, 6), st.data())
def test_alltoall_is_transpose(p, data):
    matrix = data.draw(
        st.lists(
            st.lists(st.integers(-100, 100), min_size=p, max_size=p),
            min_size=p, max_size=p,
        )
    )

    def main(comm):
        return comm.alltoall(matrix[comm.rank])

    res = spmd(p, main)
    for j in range(p):
        assert res[j] == [matrix[i][j] for i in range(p)]


@settings(max_examples=20, deadline=None)
@given(st.integers(2, 8), st.data())
def test_split_partitions_and_allreduce_within_colors(p, data):
    colors = data.draw(st.lists(st.integers(0, 2), min_size=p, max_size=p))

    def main(comm):
        sub = comm.split(color=colors[comm.rank])
        total = sub.allreduce(comm.rank, op=SUM)
        return (colors[comm.rank], sub.size, total)

    res = spmd(p, main)
    for color in set(colors):
        members = [r for r in range(p) if colors[r] == color]
        for r in members:
            got_color, size, total = res[r]
            assert got_color == color
            assert size == len(members)
            assert total == sum(members)


@settings(max_examples=20, deadline=None)
@given(st.integers(1, 6), st.integers(0, 5), st.data())
def test_gatherv_scatter_roundtrip(p, n, data):
    root = data.draw(st.integers(0, p - 1))

    def main(comm):
        piece = np.full(n, comm.rank, dtype=np.int64)
        gathered = comm.gather(piece, root=root)
        if comm.rank == root:
            back = comm.scatter(gathered, root=root)
        else:
            back = comm.scatter(None, root=root)
        return back.tolist()

    res = spmd(p, main)
    for r in range(p):
        assert res[r] == [r] * n
