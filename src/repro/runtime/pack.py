"""Zero-copy struct-of-arrays packing for multi-array collective payloads.

The hot collectives of the 2D algorithms (``route``'s fold triples, the
expand allgather's (idx, root) pairs) carry several parallel NumPy arrays
per destination.  Shipping them as a Python tuple costs one envelope object
per array and loses the "one contiguous buffer per peer" property real MPI
datatypes give CombBLAS.  This module flattens any such payload into a
single ``uint8`` buffer with a tiny self-describing header, and unpacks it
back into dtype-preserving *views* of the received buffer — no per-array
copies on either side beyond the one wire copy the fabric always makes.

Headers are little-endian ``int32`` (the fold triples dominate the fold
word budget, so every header word counts); payload segments start on an
8-byte boundary and are padded to 8-byte multiples.

``pack_arrays(a0, .., aK-1)`` — parallel-array payloads (K ≤ 6)::

    word 0 (int32)  bits 0..2   K (number of arrays)
                    bit  3      equal-length flag (parallel arrays: one
                                length word)
                    bits 4..27  per-array dtype codes, 4 bits each (array
                                i at bit 4 + 4i)
    then            one int32 length (equal-length) or K int32 lengths
    then            (pad to 8 bytes) each array's raw bytes, padded to
                    8-byte multiples

The common equal-length case (any K) spends exactly ONE 8-byte word on the
header.

Packing preserves dtypes; the width an ``int64`` array crosses the wire at
is :func:`wire_dtype`'s, which both backends' wires apply to the arrays a
payload carries (a packed buffer is ``uint8`` and crosses as it is).
"""

from __future__ import annotations

import numpy as np

_DTYPES: "tuple[np.dtype, ...]" = tuple(
    np.dtype(t)
    for t in (
        np.int64, np.int32, np.int16, np.int8,
        np.uint64, np.uint32, np.uint16, np.uint8,
        np.float64, np.float32, np.bool_,
    )
)
_CODE_OF = {dt: i + 1 for i, dt in enumerate(_DTYPES)}
_DTYPE_OF = {i + 1: dt for i, dt in enumerate(_DTYPES)}

#: (signed, unsigned) pairs a range may narrow to, narrowest first
_NARROW = tuple(
    (np.iinfo(s).min, np.iinfo(s).max, np.iinfo(u).max, np.dtype(s), np.dtype(u))
    for s, u in ((np.int8, np.uint8), (np.int16, np.uint16), (np.int32, np.uint32))
)
_INT64 = np.dtype(np.int64)

_MAX_ARRAYS = 6
_EQUAL_FLAG = 1 << 3
_MAX_LEN = 2 ** 31  # int32 length words


def _pad8(nbytes: int) -> int:
    return (nbytes + 7) & ~7


def wire_dtype(a: np.ndarray) -> np.dtype:
    """The dtype ``a`` crosses the wire in: for a non-empty ``int64`` array
    the narrowest integer dtype holding its [min, max] — unsigned when no
    value is negative — and ``a.dtype`` for everything else.  The receiver
    widens it back to ``int64``."""
    if a.dtype != _INT64 or not a.size:
        return a.dtype
    lo, hi = int(a.min()), int(a.max())
    for smin, smax, umax, signed, unsigned in _NARROW:
        if lo >= 0:
            if hi <= umax:
                return unsigned
        elif smin <= lo and hi <= smax:
            return signed
    return a.dtype


def pack_arrays(*arrays: np.ndarray) -> np.ndarray:
    """Flatten 1-D parallel arrays into one contiguous ``uint8`` buffer."""
    K = len(arrays)
    if not 1 <= K <= _MAX_ARRAYS:
        raise ValueError(f"pack_arrays takes 1..{_MAX_ARRAYS} arrays, got {K}")
    arrs = []
    codes = []
    for a in arrays:
        a = np.ascontiguousarray(a)
        if a.ndim != 1:
            raise ValueError(f"pack_arrays needs 1-D arrays, got shape {a.shape}")
        if a.size >= _MAX_LEN:
            raise ValueError(f"array too long to pack: {a.size}")
        code = _CODE_OF.get(a.dtype)
        if code is None:
            raise ValueError(f"unsupported dtype {a.dtype} for packing")
        arrs.append(a)
        codes.append(code)
    lens = [a.size for a in arrs]
    equal = all(n == lens[0] for n in lens)
    w0 = K | (_EQUAL_FLAG if equal else 0)
    for i, code in enumerate(codes):
        w0 |= code << (4 + 4 * i)
    header = [w0] + ([lens[0]] if equal else lens)
    hbytes = _pad8(4 * len(header))
    total = hbytes + sum(_pad8(a.nbytes) for a in arrs)
    buf = np.zeros(total, dtype=np.uint8)
    buf[:4 * len(header)].view(np.int32)[:] = header
    off = hbytes
    for a in arrs:
        buf[off:off + a.nbytes] = a.view(np.uint8)
        off += _pad8(a.nbytes)
    return buf


def unpack_arrays(buf: np.ndarray) -> "tuple[np.ndarray, ...]":
    """Inverse of :func:`pack_arrays`: dtype-preserving views into ``buf``."""
    buf = np.ascontiguousarray(buf, dtype=np.uint8)
    w0 = int(buf[:4].view(np.int32)[0])
    K = w0 & 0x7
    if not 1 <= K <= _MAX_ARRAYS:
        raise ValueError(f"corrupt packed buffer: K={K}")
    nlen = 1 if w0 & _EQUAL_FLAG else K
    header = buf[4:4 * (1 + nlen)].view(np.int32)
    lens = [int(header[0])] * K if w0 & _EQUAL_FLAG else [int(x) for x in header]
    out = []
    off = _pad8(4 * (1 + nlen))
    for i, n in enumerate(lens):
        dt = _DTYPE_OF.get((w0 >> (4 + 4 * i)) & 0xF)
        if dt is None:
            raise ValueError("corrupt packed buffer: unknown dtype code")
        nbytes = n * dt.itemsize
        out.append(buf[off:off + nbytes].view(dt))
        off += _pad8(nbytes)
    return tuple(out)
