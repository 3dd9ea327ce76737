"""The wire's integer width: on both backends every ``int64`` array crosses
at the narrowest integer dtype holding its [min, max] and arrives as the
``int64`` array that was sent; other dtypes cross untouched, and the
ledger counts the narrowed bytes — never more than the full-width count."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.runtime import spmd
from repro.runtime.comm import _payload_words, _widen, _wire
from repro.runtime.pack import wire_dtype
from repro.runtime.shm import decode_message, encode_message

#: NULL, the unsigned and signed boundaries, and the int64 extremes
EDGES = [-1, 0, 127, 128, 255, 256, 2**15, 2**16 - 1, 2**16, 2**31 - 1, 2**31,
         2**32, -(2**31), -(2**63), 2**63 - 1]

int64_arrays = st.lists(
    st.one_of(st.sampled_from(EDGES), st.integers(-(2**63), 2**63 - 1)), max_size=40,
).map(lambda v: np.array(v, dtype=np.int64))

#: views the wire must read as they are: every other, reversed
VIEWS = [lambda a: a, lambda a: a[::2], lambda a: a[::-1]]


def _same(sent, got):
    if isinstance(sent, np.ndarray):
        assert isinstance(got, np.ndarray) and got.dtype == sent.dtype
        assert got.shape == sent.shape
        np.testing.assert_array_equal(got, sent)
    elif isinstance(sent, (tuple, list)):
        assert type(got) is type(sent) and len(got) == len(sent)
        for x, y in zip(sent, got):
            _same(x, y)
    else:
        assert got == sent


def _thread_wire(payload):
    wire, _ = _wire(payload, copy=True)
    return _widen(wire)


def _ring_wire(payload):
    return decode_message(bytearray(encode_message(7, payload, 1, None)))[1]


@pytest.mark.parametrize("values,width", [
    ([0, 255], np.uint8), ([0, 256], np.uint16), ([-1, 127], np.int8),
    ([-1, 128], np.int16), ([-1, 255], np.int16), ([0, 2**16 - 1], np.uint16),
    ([0, 2**16], np.uint32), ([-1, 2**15 - 1], np.int16), ([-1, 2**16], np.int32),
    ([0, 2**31], np.uint32), ([-1, 2**31], np.int64), ([0, 2**63 - 1], np.int64),
    ([-(2**63), 0], np.int64),
])
def test_an_int64_range_picks_the_narrowest_dtype(values, width):
    assert wire_dtype(np.array(values, dtype=np.int64)) == np.dtype(width)


def test_other_dtypes_and_empty_arrays_keep_their_own():
    for a in (np.zeros(3, np.bool_), np.arange(3, dtype=np.uint8), np.arange(3.0),
              np.arange(3, dtype=np.int32), np.zeros(0, np.int64)):
        assert wire_dtype(a) == a.dtype


@settings(max_examples=200, deadline=None)
@given(int64_arrays, st.sampled_from(range(len(VIEWS))))
def test_every_int64_array_round_trips_on_both_wires(a, view):
    a = VIEWS[view](a)
    payload = (3, a, [a, np.zeros(0, np.int64)])
    for wire in (_thread_wire, _ring_wire):
        _same(payload, wire(payload))
    assert _payload_words(a) == -(-a.size * wire_dtype(a).itemsize // 8)
    assert _payload_words(payload) <= _payload_words(payload, narrow=False)


@settings(max_examples=50, deadline=None)
@given(st.lists(st.floats(allow_nan=False), max_size=20),
       st.lists(st.booleans(), max_size=20),
       st.lists(st.integers(0, 255), max_size=20))
def test_other_dtypes_pass_through_untouched(floats, bools, small):
    arrays = (np.array(floats, np.float64), np.array(bools, np.bool_), np.array(small, np.uint8))
    for wire in (_thread_wire, _ring_wire):
        _same(arrays, wire(arrays))
    wired, words = _wire(arrays, copy=True)
    assert all(type(x) is np.ndarray for x in wired)  # no narrowing wrapper
    assert words == _payload_words(arrays, narrow=False)


#: one payload per boundary: what rank 0 sends rank 1 in the SPMD check
BOUNDARY = [np.array(v, dtype=np.int64) for v in
            ([-1, 0], [0, 255], [0, 256], [0, 2**16 - 1], [0, 2**16], [0, 2**31],
             [0, 2**63 - 1], [])]


def _send_boundaries(comm):
    strided = np.arange(40, dtype=np.int64)[::3] * 1000
    payload = (*BOUNDARY, strided, np.arange(4.0), np.ones(3, np.bool_))
    got = comm.alltoall([payload, payload] if comm.rank == 0 else [None, None])
    words = comm.stats.words_sent
    if comm.rank == 1:
        _same(payload, got[0])
    return words


@pytest.mark.parametrize("backend", ["thread", "process"])
def test_both_backends_deliver_and_count_the_same(backend):
    words = spmd(2, _send_boundaries, backend=backend, timeout=30)
    # rank 0's boundaries at their range widths: 2, 2, 4, 4, 8, 8, 16 and
    # 0 bytes, then 28 for the strided view (14 ids ≤ 39,000 in uint16),
    # 4 floats and 3 bools
    assert words[0] == 6 * 1 + 2 + 0 + 4 + 4 + 1
    assert words[0] < _payload_words((*BOUNDARY, np.arange(14), np.arange(4.0),
                                      np.ones(3, np.bool_)), narrow=False)
    assert words[1] == 1  # its None
