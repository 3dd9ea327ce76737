"""What both transports share below the wire: the :class:`Inbox` matching
queue, the receive-side error text, and the :class:`RankOutcome` a rank
reports — in-thread on one backend, pickled over a pipe on the other."""

import pickle
import random
import re
import threading

import pytest

from repro.runtime import spmd
from repro.runtime.errors import CommError, DeadlockError
from repro.runtime.fabric import ANY_SOURCE, Envelope, Inbox
from repro.runtime.transport import BACKENDS, RankOutcome


def _env(source, tag, serial):
    return Envelope(source, 0, tag, None, serial)


@pytest.mark.parametrize("seed", range(5))
def test_reordering_never_overtakes_within_a_stream(seed):
    """Whatever slot ``reorder_u`` draws, envelopes of one (source, tag)
    stream leave in the order they were deposited."""
    rng = random.Random(seed)
    inbox = Inbox()
    streams = [(s, t) for s in range(3) for t in (0, 7)]
    for serial in range(200):
        source, tag = rng.choice(streams)
        inbox.deposit(_env(source, tag, serial), rng.choice([None, rng.random(), 0.0]))
        if rng.random() < 0.3:
            inbox.take(*rng.choice(streams))
    for source, tag in streams:
        serials = [e.serial for e in inbox.queue if (e.source, e.tag) == (source, tag)]
        assert serials == sorted(serials)


def test_reorder_slot_spans_floor_to_end():
    inbox = Inbox()
    for serial, (source, tag) in enumerate([(0, 1), (1, 1), (0, 1), (2, 1)]):
        inbox.deposit(_env(source, tag, serial))
    # stream (0, 1) last sits at index 2: u = 0 lands right behind it,
    # u -> 1 at the very end, never in front of it
    inbox.deposit(_env(0, 1, 4), 0.0)
    assert [e.serial for e in inbox.queue] == [0, 1, 2, 4, 3]
    inbox.deposit(_env(0, 1, 5), 0.999)
    assert inbox.queue[-1].serial == 5
    # a stream with nothing queued may jump the whole queue
    inbox.deposit(_env(9, 9, 6), 0.0)
    assert inbox.queue[0].serial == 6


def test_wildcards_match_in_arrival_order():
    """The source is the one wildcard: the tag always matches exactly."""
    inbox = Inbox()
    for serial, (source, tag) in enumerate([(2, 5), (1, 5), (1, 3), (2, 3)]):
        inbox.deposit(_env(source, tag, serial))
    assert inbox.find(ANY_SOURCE, 3) == 2
    assert inbox.find(3, 5) == -1 and inbox.take(3, 5) is None
    assert inbox.find(ANY_SOURCE, 4) == -1
    assert inbox.take(ANY_SOURCE, 3).serial == 2
    assert inbox.take(1, 5).serial == 1
    assert inbox.take(ANY_SOURCE, 5).serial == 0
    assert inbox.take(2, 3).serial == 3
    assert inbox.queue == []


def test_strays_are_everything_left_queued():
    """All traffic is collective, so whatever is still queued is a stray."""
    inbox = Inbox()
    tags = [1, (3 << 32) + 7, 2, 1]
    for serial, tag in enumerate(tags):
        inbox.deposit(_env(serial, tag, serial))
    assert inbox.take_strays() == list(enumerate(tags))
    assert inbox.queue == []
    assert inbox.take_strays() == []


# -- one error text, one outcome, under both wires ---------------------------


def _lonely_recv(comm):
    if comm.rank == 0:
        comm.bcast(None, root=1)          # rank 1, the root, never enters
    elif comm.rank == 2:
        comm.gather(comm.rank, root=0)    # queued at rank 0, from the wrong source


@pytest.mark.parametrize("backend", BACKENDS)
def test_lonely_recv_deadlocks_with_the_same_text(backend):
    """A deadlock names the collective instance it is stuck in and decodes
    the pending queue the same way, on both wires."""
    with pytest.raises(DeadlockError) as info:
        spmd(3, _lonely_recv, backend=backend, timeout=0.5)
    assert re.sub(r"\(pid \d+\)", "(pid N)", str(info.value)) == (
        "[spmd rank 0] rank 0: collective recv from rank 1 (comm 0, "
        "collective seq 1) made no progress for 0.5s; pending queue "
        "(source, comm, seq): [(2, 0, 1)]"
    )
    assert info.value.spmd_rank == 0


def test_rank_outcome_round_trips_and_degrades_when_unpicklable():
    out = RankOutcome(value={"mates": [1, 2]}, finished=True, strays=[(1, 7)],
                      idle_wait=0.5, progress={"phase": 3})
    assert pickle.loads(out.wire_bytes(0)) == out

    back = pickle.loads(RankOutcome(value=threading.Lock(), finished=True,
                                    progress={"phase": 3}).wire_bytes(2))
    assert back.value is None and back.finished and back.progress == {"phase": 3}
    assert isinstance(back.error, CommError)
    assert str(back.error) == (
        "rank 2: return value is not picklable (the process backend ships "
        "results over a pipe)"
    )

    class Unshippable(Exception):
        def __reduce__(self):
            raise TypeError("no")

    back = pickle.loads(RankOutcome(error=Unshippable("boom"), finished=True).wire_bytes(1))
    assert str(back.error) == "rank 1: Unshippable: boom"
