"""Point-to-point semantics of the simulated runtime."""

import numpy as np
import pytest

from repro.runtime import ANY_SOURCE, ANY_TAG, DeadlockError, spmd


def test_single_rank_returns_value():
    res = spmd(1, lambda comm: comm.rank * 10 + comm.size)
    assert res[0] == 1
    assert res.nranks == 1


def test_ring_exchange():
    def main(comm):
        right = (comm.rank + 1) % comm.size
        left = (comm.rank - 1) % comm.size
        comm.send(right, comm.rank)
        got = comm.recv(left)
        assert got == left
        return got

    res = spmd(5, main)
    assert res.values == [4, 0, 1, 2, 3]


def test_numpy_payload_is_copied_on_send():
    """Mutating the buffer after send must not affect the receiver."""

    def main(comm):
        if comm.rank == 0:
            buf = np.arange(10)
            comm.send(1, buf)
            buf[:] = -1  # sender-side mutation after the send returned
            return None
        got = comm.recv(0)
        return got.sum()

    res = spmd(2, main)
    assert res[1] == sum(range(10))


def test_tag_matching_selects_correct_message():
    def main(comm):
        if comm.rank == 0:
            comm.send(1, "a", tag=7)
            comm.send(1, "b", tag=9)
            return None
        # Receive out of send order by tag.
        second = comm.recv(0, tag=9)
        first = comm.recv(0, tag=7)
        return (first, second)

    res = spmd(2, main)
    assert res[1] == ("a", "b")


def test_same_source_same_tag_is_non_overtaking():
    def main(comm):
        if comm.rank == 0:
            for i in range(20):
                comm.send(1, i, tag=3)
            return None
        return [comm.recv(0, tag=3) for _ in range(20)]

    res = spmd(2, main)
    assert res[1] == list(range(20))


def test_any_source_any_tag_wildcards():
    def main(comm):
        if comm.rank == comm.size - 1:
            seen = set()
            for _ in range(comm.size - 1):
                payload, src, tag = comm.recv_with_status(ANY_SOURCE, ANY_TAG)
                assert payload == src * 100
                assert tag == src
                seen.add(src)
            return seen
        comm.send(comm.size - 1, comm.rank * 100, tag=comm.rank)
        return None

    res = spmd(4, main)
    assert res[3] == {0, 1, 2}


def test_sendrecv_simultaneous_exchange_no_deadlock():
    def main(comm):
        partner = comm.size - 1 - comm.rank
        got = comm.sendrecv(partner, comm.rank, partner, tag=1)
        return got

    res = spmd(6, main)
    assert res.values == [5, 4, 3, 2, 1, 0]


def test_probe():
    def main(comm):
        if comm.rank == 0:
            assert not comm.probe(1, tag=2)
            comm.send(1, "x", tag=2)
            comm.recv(1, tag=5)  # ack: guarantees rank 1 probed after arrival
            return None
        while not comm.probe(0, tag=2):
            pass
        got = comm.recv(0, tag=2)
        comm.send(0, "ack", tag=5)
        return got

    res = spmd(2, main)
    assert res[1] == "x"


def test_recv_without_send_raises_deadlock_error():
    def main(comm):
        if comm.rank == 0:
            comm.recv(1, tag=0)  # never sent
        return None

    with pytest.raises(DeadlockError):
        spmd(2, main, timeout=0.3)


def lonely_recv(comm):
    """Rank 1 waits on tag 9; rank 0 only ever sends tag 8."""
    if comm.rank == 0:
        comm.send(1, b"ping", tag=8)
    elif comm.rank == 1:
        return comm.recv(0, tag=9)
    return None


def ring_recv_before_send(comm):
    """Every rank receives from its left neighbour *before* sending to its
    right — a cyclic wait with no message in flight."""
    left = (comm.rank - 1) % comm.size
    right = (comm.rank + 1) % comm.size
    got = comm.recv(left, tag=7)
    comm.send(right, comm.rank, tag=7)
    return got


def test_lonely_recv_deadlock_names_rank_and_op():
    """The timeout backstop names the blocked rank and the blocked op."""
    with pytest.raises(DeadlockError) as exc:
        spmd(2, lonely_recv, timeout=0.4, join_grace=2.0)
    msg = str(exc.value)
    assert "rank 1" in msg, "backstop must name the blocked rank"
    assert "recv(source=0, tag=9)" in msg


def test_ring_recv_before_send_deadlocks_in_recv():
    with pytest.raises(DeadlockError) as exc:
        spmd(2, ring_recv_before_send, timeout=0.4, join_grace=2.0)
    assert "recv" in str(exc.value)


class Boom(RuntimeError):
    """Module-level so the process backend can pickle it over the result
    pipe — function-local exception types degrade to CommError there."""


def test_exception_in_one_rank_propagates_and_unblocks_peers():
    def main(comm):
        if comm.rank == 0:
            raise Boom("rank 0 died")
        # Rank 1 would deadlock forever waiting on rank 0 without abort.
        comm.recv(0)
        return None

    with pytest.raises(Boom, match="rank 0 died"):
        spmd(2, main, timeout=5.0)


def test_send_to_out_of_range_rank_raises():
    def main(comm):
        comm.send(comm.size + 3, 1)

    with pytest.raises(Exception):
        spmd(2, main, timeout=1.0)


def test_reserved_tag_rejected_for_user_messages():
    from repro.runtime import CommError

    def main(comm):
        comm.send((comm.rank + 1) % comm.size, 0, tag=1 << 30)

    with pytest.raises(CommError, match="reserved for collective"):
        spmd(2, main, timeout=1.0)


def test_reserved_tag_rejected_on_recv_and_probe():
    from repro.runtime import CommError

    def recv_main(comm):
        comm.recv(tag=1 << 30)

    with pytest.raises(CommError, match="reserved for collective"):
        spmd(2, recv_main, timeout=1.0)

    def probe_main(comm):
        comm.probe(tag=(1 << 30) + 5)

    with pytest.raises(CommError, match="reserved for collective"):
        spmd(2, probe_main, timeout=1.0)


def test_negative_tag_rejected_for_send_but_wildcard_recv_ok():
    from repro.runtime import CommError

    def main(comm):
        comm.send((comm.rank + 1) % comm.size, 0, tag=-1)

    with pytest.raises(CommError):
        spmd(2, main, timeout=1.0)


def test_stats_count_messages_and_words():
    def main(comm):
        if comm.rank == 0:
            comm.send(1, np.zeros(16, dtype=np.int64))  # 16 words
        else:
            comm.recv(0)
        return None

    res = spmd(2, main)
    assert res.stats[0].messages_sent == 1
    assert res.stats[0].words_sent == 16
    assert res.stats[1].messages_sent == 0
    assert res.total_messages == 1
