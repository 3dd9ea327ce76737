"""Roundtrip and encoding-choice tests for the zero-copy packing layer."""

import numpy as np
import pytest

from repro.runtime import pack_arrays, unpack_arrays
from repro.runtime.pack import _DTYPES, _MAX_ARRAYS


def _assert_roundtrip(*arrays):
    out = unpack_arrays(pack_arrays(*arrays))
    assert len(out) == len(arrays)
    for got, want in zip(out, arrays):
        want = np.asarray(want)
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)


def test_single_array_roundtrip():
    _assert_roundtrip(np.arange(17, dtype=np.int64))


def test_parallel_equal_length_arrays_roundtrip():
    n = 11
    _assert_roundtrip(
        np.arange(n, dtype=np.int64),
        np.arange(n, dtype=np.int64) * 7,
        np.arange(n, dtype=np.int64) % 3,
    )


def test_unequal_length_arrays_roundtrip():
    _assert_roundtrip(
        np.arange(5, dtype=np.int64),
        np.arange(12, dtype=np.int32),
        np.empty(0, dtype=np.float64),
    )


@pytest.mark.parametrize("dt", _DTYPES, ids=str)
def test_every_supported_dtype_roundtrips(dt):
    rng = np.random.default_rng(0)
    if dt == np.dtype(bool):
        a = rng.integers(0, 2, 9).astype(bool)
    elif dt.kind == "f":
        a = rng.random(9).astype(dt)
    else:
        a = rng.integers(0, 100, 9).astype(dt)
    _assert_roundtrip(a)


def test_all_empty_arrays_roundtrip():
    _assert_roundtrip(np.empty(0, np.int64), np.empty(0, np.uint8))


def test_max_arrays_roundtrip_and_limits():
    arrays = [np.arange(3, dtype=np.int64) + i for i in range(_MAX_ARRAYS)]
    _assert_roundtrip(*arrays)
    with pytest.raises(ValueError, match="1.."):
        pack_arrays()
    with pytest.raises(ValueError, match="1.."):
        pack_arrays(*(arrays + [np.arange(3)]))


def test_odd_byte_sizes_are_padded_not_truncated():
    # int8/bool segments are not 8-byte multiples; padding must not leak
    # between consecutive segments.
    _assert_roundtrip(
        np.array([1, 2, 3], dtype=np.int8),
        np.array([True, False, True, True, False], dtype=bool),
        np.array([9.5], dtype=np.float64),
    )


def test_unsupported_inputs_are_rejected():
    with pytest.raises(ValueError, match="1-D"):
        pack_arrays(np.zeros((2, 2), dtype=np.int64))
    with pytest.raises(ValueError, match="unsupported dtype"):
        pack_arrays(np.zeros(2, dtype=np.complex128))


def test_unpack_returns_views_of_the_buffer():
    buf = pack_arrays(np.arange(4, dtype=np.int64))
    (a,) = unpack_arrays(buf)
    assert a.base is not None  # zero-copy: a view, not a fresh allocation
    buf[8] += 1  # poke the first payload byte (header is one 8-byte word)
    assert a[0] == 1  # the view sees it


def test_equal_length_header_is_one_word():
    # the fold triples are the hot path: 3 equal-length arrays must spend
    # exactly one 8-byte word on framing
    n = 5
    triple = [np.arange(n, dtype=np.int64)] * 3
    assert pack_arrays(*triple).nbytes == 8 + 3 * 8 * n
