"""Unit tests for the shared-memory transport primitives: the message
codec (array fast path and pickle fallback) and the per-destination ring
buffer (framing, chunking, wraparound, doorbell)."""

import multiprocessing as mp
import os
import threading
from multiprocessing import shared_memory

import numpy as np
import pytest

from repro.runtime.shm import (
    Ring,
    carve_rings,
    decode_frame,
    decode_message,
    encode_frame,
    encode_message,
    ring_segment_size,
)


def _eq(a, b):
    if isinstance(a, np.ndarray):
        return (
            isinstance(b, np.ndarray)
            and a.dtype == b.dtype
            and a.shape == b.shape
            and np.array_equal(a, b)
        )
    if isinstance(a, (tuple, list)):
        return type(a) is type(b) and len(a) == len(b) and all(
            _eq(x, y) for x, y in zip(a, b)
        )
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(_eq(a[k], b[k]) for k in a)
    return a == b


PAYLOADS = [
    None,
    42,
    ("barrier", 3),
    np.arange(1000, dtype=np.int64),                    # bare array fast path
    ("allreduce", 5, np.arange(7, dtype=np.float64)),   # array in tuple
    [np.arange(3, dtype=np.int32), np.zeros(0, dtype=np.uint8), None],
    (1, (np.ones(4), np.array(2.5))),                   # nested + 0-d
    (np.arange(12).reshape(3, 4), "x"),                 # 2-D
    np.arange(10)[::2],                                 # non-contiguous -> pickle
    np.array(["a", "b"], dtype=object),                 # object dtype -> pickle
    {"k": np.arange(5)},                                # dict -> pickle + oob
    (3, [np.arange(6, dtype=np.int16)]),                # list inside tuple
]


@pytest.mark.parametrize("payload", PAYLOADS, ids=range(len(PAYLOADS)))
def test_codec_round_trip(payload):
    enc = encode_message(17, payload, 99, 0.25)
    tag, out, serial, reorder = decode_message(bytearray(enc))
    assert (tag, serial, reorder) == (17, 99, 0.25)
    assert _eq(payload, out)


@pytest.mark.parametrize("payload", PAYLOADS, ids=range(len(PAYLOADS)))
def test_frame_codec_round_trip(payload):
    """The batch codec has no ``src/`` caller left (the e2e benchmark's
    ``runtime.codec_*`` metrics are its only user), so the message codec's
    payloads go through it here too: a one-entry frame, and a three-entry
    frame whose neighbours carry their own arrays and both reorder forms
    (``None`` and a float)."""
    [(tag, out, serial, reorder)] = decode_frame(
        bytearray(encode_frame([(17, 99, 0.25, payload)]))
    )
    assert (tag, serial, reorder) == (17, 99, 0.25)
    assert _eq(payload, out)

    entries = [
        (3, 7, None, np.arange(5, dtype=np.int32)),
        (17, 8, 0.5, payload),
        (1 << 31, 9, None, ("tail", np.ones(2))),
    ]
    got = decode_frame(bytearray(encode_frame(entries)))
    assert [(t, s, u) for t, _, s, u in got] == [(t, s, u) for t, s, u, _ in entries]
    for (_, _, _, sent), (_, recvd, _, _) in zip(entries, got):
        assert _eq(sent, recvd)


def test_frame_decoded_arrays_alias_the_buffer():
    """Like ``decode_message``: arrays that cross at their own width come
    back as writable views over the receiver-owned buffer — no second copy,
    and isolated from the sender.  A narrowed ``int64`` array comes back
    widened into an array of its own."""
    src = np.arange(8, dtype=np.float64)
    buf = bytearray(encode_frame([(1, 0, None, src), (2, 1, None, (src, "x"))]))
    (_, first, _, _), (_, (second, _), _, _) = decode_frame(buf)
    src[1] = 444                    # sender-side mutation after the encode
    assert first[1] == 1 and second[1] == 1
    first[0] = 555                  # the receiver's write lands in ITS buffer
    assert np.shares_memory(first, np.frombuffer(buf, dtype=np.uint8))
    assert second[0] == 0           # entries do not alias each other

    ids = np.arange(8, dtype=np.int64)
    buf = bytearray(encode_frame([(1, 0, None, ids)]))
    [(_, got, _, _)] = decode_frame(buf)
    assert got.dtype == np.int64 and got.flags.writeable
    assert not np.shares_memory(got, np.frombuffer(buf, dtype=np.uint8))
    np.testing.assert_array_equal(got, ids)


def test_codec_none_reorder():
    enc = encode_message(1, "x", 2, None)
    assert decode_message(bytearray(enc))[3] is None


def test_decoded_arrays_are_writable_and_isolated():
    src = np.arange(8, dtype=np.int64)
    enc = encode_message(1, src, 0, None)
    _, out, _, _ = decode_message(bytearray(enc))
    out[0] = 555          # receiver owns its copy
    src[1] = 444          # sender-side mutation after send...
    assert out[0] == 555
    assert out[1] == 1    # ...never reaches the receiver (wire semantics)


def test_sender_payload_not_mutated_by_encode():
    payload = ("tagged", [np.arange(3), "keep"])
    encode_message(5, payload, 0, None)
    assert isinstance(payload[1][0], np.ndarray)  # walk must not scribble


def _make_ring(cap):
    ctx = mp.get_context("fork")
    seg = shared_memory.SharedMemory(create=True, size=ring_segment_size(1, cap))
    ring = carve_rings(seg.buf, 1, cap, [ctx.Lock()], [ctx.Semaphore(0)])[0]
    return ring, seg


def _release(ring, seg):
    ring.release()
    seg.close()
    seg.unlink()


def test_ring_single_frame_round_trip():
    ring, seg = _make_ring(1 << 16)
    try:
        for n in (0, 1, 100, 4000):
            msg = os.urandom(n)
            ring.write(3, msg)
            (src, data), = ring.drain()
            assert src == 3 and bytes(data) == msg
    finally:
        _release(ring, seg)


def test_ring_chunked_message_larger_than_ring():
    """A message bigger than the whole ring flows through as chunked
    frames while a concurrent consumer drains."""
    ring, seg = _make_ring(1 << 14)
    msgs = [os.urandom(n) for n in (40000, 7, 100000, 16384)]
    got = []

    def consume():
        while len(got) < len(msgs):
            ring.wait_data(0.05)
            got.extend(ring.drain())

    t = threading.Thread(target=consume)
    try:
        t.start()
        for m in msgs:
            ring.write(1, m)
        t.join(30)
        assert not t.is_alive()
        assert [bytes(d) for _, d in got] == msgs
    finally:
        _release(ring, seg)


def test_ring_wraparound_torture():
    ring, seg = _make_ring(1 << 14)
    try:
        for rep in range(300):
            msg = os.urandom(2900 + (rep * 37) % 1200)
            ring.write(1, msg)
            (src, data), = ring.drain()
            assert bytes(data) == msg
    finally:
        _release(ring, seg)


def test_ring_interleaves_sources():
    ring, seg = _make_ring(1 << 16)
    try:
        a, b = os.urandom(500), os.urandom(600)
        ring.write(0, a)
        ring.write(5, b)
        (s0, d0), (s1, d1) = ring.drain()
        assert (s0, bytes(d0)) == (0, a)
        assert (s1, bytes(d1)) == (5, b)
    finally:
        _release(ring, seg)


def test_ring_wait_data_times_out_empty():
    ring, seg = _make_ring(1 << 12)
    try:
        assert ring.wait_data(0.05) is False
        ring.write(0, b"x")
        assert ring.wait_data(0.05) is True
    finally:
        _release(ring, seg)
