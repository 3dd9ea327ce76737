"""Shared-memory message transport primitives for the process backend.

Two layers live here, both free of any policy about ranks or matching:

* a **message codec** — the arrays of a payload are written into the ring
  as raw bytes, exactly once, with no base64/copy detours, each ``int64``
  array at the narrowest integer dtype holding its values
  (:func:`~repro.runtime.pack.wire_dtype`, the width the communicator's
  ledger counts).  Decoding hands NumPy the receiver-side bytes as
  writable views over the drained buffer, widening a narrowed array back
  to ``int64``: the receiver owns its data (wire semantics) without a
  second copy.
* a **ring buffer** — one single-consumer byte ring per destination rank,
  all carved out of one ``multiprocessing.shared_memory`` segment the
  parent creates before forking.  Producers (any rank) append frames under
  the ring's pre-forked ``multiprocessing`` condition; the owner drains
  them.  Large messages are chunked into bounded frames (``more`` flag +
  per-source reassembly) so a payload bigger than the ring still flows
  through it instead of needing its own segment.

Senders that find a ring full must not simply block: two ranks sending to
each other in one pairwise all-to-all round with both rings full would
deadlock, where the thread backend's unbounded mailboxes cannot.
:meth:`Ring.write` keeps the buffered-send contract by invoking a
caller-supplied ``stall`` hook between short waits — the process fabric's
hook drains the sender's *own* ring into its local pending list (freeing
its peers) and re-checks the abort flag.

Blocking is deliberately NOT a ``multiprocessing.Condition``: its
wait/notify protocol costs ~5 semaphore operations per wait and ~3 per
notified waiter, which dominates small-message latency.  Instead each ring
pairs one ``multiprocessing.Lock`` (guarding head/tail) with one doorbell
``Semaphore(0)`` the consumer sleeps on; producers post it only when the
consumer has raised its shm sleeping flag — the uncontended hot path does
two lock operations and zero doorbell syscalls per message.
"""

from __future__ import annotations

import os
import pickle
import struct
import time
from typing import Any, Callable

import numpy as np

from .errors import DeadlockError
from .pack import wire_dtype

#: per-frame header: payload byte length, source rank, more-chunks flag
_FRAME_HDR = struct.Struct("<iii")
#: per-message header: tag, reorder draw (NaN = none), sender serial,
#: pickle byte length, out-of-band buffer count, codec kind
_MSG_HDR = struct.Struct("<qdqqqq")

#: codec kinds: 0 = plain pickle-5 with out-of-band buffers; 1 = arrays
#: stripped from the payload container and shipped as raw (wire dtype,
#: shape, widened dtype or None) records and bytes, sidestepping
#: ``ndarray.__reduce_ex__`` entirely
_KIND_PICKLE = 0
_KIND_ARRAYS = 1

#: length prefix of one message inside a frame (see :func:`encode_frame`)
_LEN = struct.Struct("<q")

#: ring capacity per destination rank (bytes)
RING_BYTES = 4 << 20

#: how long a producer sleeps on a full ring before re-running its stall hook
_STALL_WAIT = 0.001

#: consumer fast path: yield-spin this many times before a semaphore sleep.
#: On few-core hosts ``sched_yield`` hands the CPU straight to the producer
#: and the reply is usually waiting when we run again — no futex round trip.
_SPIN_YIELDS = 32


def _strip_arrays(payload: Any, arrays: list, paths: list, path: tuple = ()) -> Any:
    """Replace the ndarrays in a tuple/list container, at any depth, with
    ``None``, recording each array and its position.

    Only exact ``np.ndarray`` (no subclasses) without object or structured
    dtypes — anything else stays in place for pickle.  A container with no
    array inside comes back as the same object.
    """
    t = type(payload)
    if t is np.ndarray:
        if payload.dtype.kind in "OV":
            return payload
        arrays.append(payload)
        paths.append(path)
        return None
    if t is not tuple and t is not list:
        return payload
    items = None
    for i, x in enumerate(payload):
        xt = type(x)
        if xt is np.ndarray or xt is tuple or xt is list:
            y = _strip_arrays(x, arrays, paths, path + (i,))
            if y is not x:
                if items is None:
                    items = list(payload)
                items[i] = y
    if items is None:
        return payload
    return tuple(items) if t is tuple else items


def _plant(obj: Any, path: tuple, value: Any) -> Any:
    """Inverse of :func:`_strip_arrays` for one position: rebuild ``obj``
    with ``value`` grafted at ``path`` (tuples are rebuilt; lists, which we
    own after unpickling, are mutated in place)."""
    if not path:
        return value
    i = path[0]
    if type(obj) is tuple:
        items = list(obj)
        items[i] = _plant(items[i], path[1:], value)
        return tuple(items)
    obj[i] = _plant(obj[i], path[1:], value)
    return obj


def encode_message(
    tag: int, payload: Any, serial: int, reorder_u: "float | None"
) -> bytes:
    """Flatten one message to bytes: header, buffer length table, pickle
    stream, then the out-of-band buffers raw.

    NumPy arrays anywhere in the payload's tuple/list nesting bypass pickle:
    ``ndarray.__reduce_ex__`` costs ~7us per array where recording
    ``(dtype.str, shape)`` and splicing the raw bytes in costs well under
    1us.  An ``int64`` array travels at its
    :func:`~repro.runtime.pack.wire_dtype` (one scan for its range, one
    narrowing copy) and :func:`decode_message` widens it back.  The pickled
    skeleton then carries only cheap builtins.
    """
    arrays: list = []
    paths: list = []
    skeleton = _strip_arrays(payload, arrays, paths)
    if arrays:
        kind = _KIND_ARRAYS
        meta = []
        raws: list = []
        for a in arrays:
            dt = wire_dtype(a)
            if dt == a.dtype:
                meta.append((dt.str, a.shape, None))
                raws.append(np.ascontiguousarray(a).data)
            else:
                meta.append((dt.str, a.shape, a.dtype.str))
                raws.append(a.astype(dt, order="C").data)
        # no buffer_callback here: raws must line up 1:1 with `paths` on
        # decode, and what is left for pickle is cheap builtins
        pkl = pickle.dumps((skeleton, paths, meta), protocol=5)
    else:
        kind = _KIND_PICKLE
        buffers: list = []
        pkl = pickle.dumps(payload, protocol=5, buffer_callback=buffers.append)
        raws = [b.raw() for b in buffers]
    lens = [r.nbytes for r in raws]
    parts = [
        _MSG_HDR.pack(
            tag,
            float("nan") if reorder_u is None else float(reorder_u),
            serial,
            len(pkl),
            len(raws),
            kind,
        )
    ]
    if lens:
        parts.append(struct.pack(f"<{len(lens)}q", *lens))
    parts.append(pkl)
    parts.extend(raws)
    return b"".join(parts)


def decode_message(data: "bytearray | bytes") -> tuple[int, Any, int, "float | None"]:
    """Inverse of :func:`encode_message`: ``(tag, payload, serial, reorder)``.

    Out-of-band buffers are reconstructed as views over ``data`` — pass a
    buffer the receiver owns (the drained reassembly bytearray) and arrays
    in the payload alias it writably with zero further copies; a narrowed
    ``int64`` array is widened into a fresh array instead.
    """
    view = memoryview(data)
    tag, reorder, serial, npkl, nbufs, kind = _MSG_HDR.unpack_from(view, 0)
    off = _MSG_HDR.size
    lens: tuple = ()
    if nbufs:
        lens = struct.unpack_from(f"<{nbufs}q", view, off)
        off += 8 * nbufs
    pkl = view[off:off + npkl]
    off += npkl
    buffers = []
    for ln in lens:
        buffers.append(view[off:off + ln])
        off += ln
    if kind == _KIND_ARRAYS:
        skeleton, paths, meta = pickle.loads(pkl)
        payload = skeleton
        for buf, path, (dtype, shape, wide) in zip(buffers, paths, meta):
            arr = np.frombuffer(buf, dtype=dtype)
            if wide is not None:
                arr = arr.astype(wide)
            if arr.shape != shape:
                arr = arr.reshape(shape)
            payload = _plant(payload, path, arr)
    else:
        payload = pickle.loads(pkl, buffers=buffers)
    return tag, payload, serial, (None if reorder != reorder else reorder)


def encode_frame(
    entries: "list[tuple[int, int, float | None, Any]]",
) -> bytes:
    """Flatten several messages bound for one destination — ``(tag,
    serial, reorder_u, payload)`` entries in send order — into one buffer:
    each :func:`encode_message` output behind its byte length."""
    parts = []
    for tag, serial, reorder_u, payload in entries:
        msg = encode_message(tag, payload, serial, reorder_u)
        parts += (_LEN.pack(len(msg)), msg)
    return b"".join(parts)


def decode_frame(
    data: "bytearray | bytes",
) -> "list[tuple[int, Any, int, float | None]]":
    """Inverse of :func:`encode_frame`: the messages as ``(tag, payload,
    serial, reorder)`` tuples in send order, arrays aliasing ``data``
    writably just like :func:`decode_message`."""
    view = memoryview(data)
    out = []
    off = 0
    while off < len(view):
        (n,) = _LEN.unpack_from(view, off)
        off += _LEN.size
        out.append(decode_message(view[off:off + n]))
        off += n
    return out


class Ring:
    """One destination rank's byte ring inside the shared segment.

    Layout: ``[head u64][tail u64][sleeping u64][pad u64][data (cap
    bytes)]``.  ``head``/``tail`` are monotonically increasing byte
    counters (never wrapped), mutated only under ``lock``; ``used = tail -
    head``.  Frames are written whole-or-not-at-all under the lock, so the
    consumer never observes a torn frame.  ``sleeping`` is the consumer's
    doorbell request: raised (under the lock) before it sleeps on ``bell``,
    so producers skip the doorbell syscall entirely whenever the consumer
    is awake and draining.  Reassembly state (``_partials``) is
    consumer-side plain Python — meaningful only in the owner process.
    """

    HDR = 32

    def __init__(self, buf: memoryview, offset: int, cap: int, lock, bell) -> None:
        # counters as a cast memoryview, NOT a numpy view: these are read
        # and written on every message, and numpy scalar ops cost ~1-2us
        # each where a cast-memoryview index is plain-int nanoseconds
        self._ptrs = buf[offset:offset + self.HDR].cast("Q")
        self._data = buf[offset + self.HDR:offset + self.HDR + cap]
        self.cap = cap
        self.lock = lock
        self.bell = bell
        #: largest frame payload: bounded so one message can't monopolize
        #: the ring and chunked traffic from several sources interleaves
        self.max_frame = max(4096, cap // 4 - _FRAME_HDR.size)
        self._partials: dict[int, bytearray] = {}

    # -- unlocked helpers (call with self.lock held) ------------------------

    def _used(self) -> int:
        return self._ptrs[1] - self._ptrs[0]

    def _ring_doorbell(self) -> None:
        # called with the lock held, right after placing a frame: the
        # consumer raises the flag under the same lock, so exactly one of
        # us observes the other and no wakeup is ever lost
        if self._ptrs[2]:
            self._ptrs[2] = 0
            self.bell.release()

    def _copy_in(self, pos: int, chunk) -> None:
        pos %= self.cap
        n = len(chunk)
        first = min(n, self.cap - pos)
        self._data[pos:pos + first] = chunk[:first]
        if first < n:
            self._data[:n - first] = chunk[first:]

    def _copy_out(self, pos: int, n: int) -> bytearray:
        pos %= self.cap
        out = bytearray(n)
        first = min(n, self.cap - pos)
        out[:first] = self._data[pos:pos + first]
        if first < n:
            out[first:] = self._data[:n - first]
        return out

    def _put_frame(self, src: int, chunk, more: int) -> None:
        tail = self._ptrs[1]
        self._copy_in(tail, _FRAME_HDR.pack(len(chunk), src, more))
        self._copy_in(tail + _FRAME_HDR.size, chunk)
        self._ptrs[1] = tail + _FRAME_HDR.size + len(chunk)

    # -- producer side ------------------------------------------------------

    def write(
        self,
        src: int,
        data: "bytes | memoryview",
        *,
        stall: "Callable[[], None] | None" = None,
        timeout: float = 60.0,
        describe: str = "send",
    ) -> None:
        """Append one whole message as chunked frames.

        Blocks while the ring is full, running ``stall`` between short
        waits (the fabric drains its own ring and checks for abort there);
        raises :class:`DeadlockError` after ``timeout`` seconds without
        placing the next frame.
        """
        total = len(data)
        hsize = _FRAME_HDR.size
        if total <= self.max_frame:
            # single-frame fast path: header packed once, payload spliced
            # straight into the ring when it doesn't wrap
            need = hsize + total
            hdr = _FRAME_HDR.pack(total, src, 0)
            deadline = None
            while True:
                with self.lock:
                    tail = self._ptrs[1]
                    if self.cap - (tail - self._ptrs[0]) >= need:
                        pos = tail % self.cap
                        if pos + need <= self.cap:
                            d = self._data
                            d[pos:pos + hsize] = hdr
                            d[pos + hsize:pos + need] = data
                        else:
                            self._copy_in(tail, hdr)
                            self._copy_in(tail + hsize, data)
                        self._ptrs[1] = tail + need
                        self._ring_doorbell()
                        return
                if deadline is None:
                    deadline = time.monotonic() + timeout
                if stall is not None:
                    stall()
                time.sleep(_STALL_WAIT)
                if time.monotonic() > deadline:
                    raise DeadlockError(
                        f"{describe}: ring buffer full for {timeout:.1f}s "
                        f"(capacity {self.cap} bytes, message {total} bytes); "
                        "receiver is not draining"
                    )
        view = memoryview(data)
        off = 0
        while True:
            chunk = view[off:off + self.max_frame]
            more = 1 if off + len(chunk) < total else 0
            need = hsize + len(chunk)
            deadline = time.monotonic() + timeout
            while True:
                with self.lock:
                    if self.cap - self._used() >= need:
                        self._put_frame(src, chunk, more)
                        self._ring_doorbell()
                        break
                # ring full (rare): poll-sleep; the consumer drains whole
                # frame batches, so space appears in bursts
                if stall is not None:
                    stall()
                time.sleep(_STALL_WAIT)
                if time.monotonic() > deadline:
                    raise DeadlockError(
                        f"{describe}: ring buffer full for {timeout:.1f}s "
                        f"(capacity {self.cap} bytes, message {total} bytes); "
                        "receiver is not draining"
                    )
            off += len(chunk)
            if not more:
                return

    # -- consumer side (owner process only) ---------------------------------

    def drain(self) -> list[tuple[int, bytearray]]:
        """Non-blocking: pop every complete frame, return fully reassembled
        ``(source, message bytes)`` pairs in arrival order."""
        if self._ptrs[1] == self._ptrs[0]:
            return []  # unlocked emptiness peek: only we consume
        frames: list[tuple[int, bytearray, int]] = []
        hsize = _FRAME_HDR.size
        with self.lock:
            head = self._ptrs[0]
            tail = self._ptrs[1]
            d = self._data
            while tail - head >= hsize:
                # frames are placed atomically under the lock, so the whole
                # frame is present whenever its header is
                pos = head % self.cap
                if pos + hsize <= self.cap:
                    plen, src, more = _FRAME_HDR.unpack_from(d, pos)
                else:
                    plen, src, more = _FRAME_HDR.unpack(
                        bytes(self._copy_out(head, hsize))
                    )
                body = head + hsize
                bpos = body % self.cap
                if bpos + plen <= self.cap:
                    chunk = bytearray(d[bpos:bpos + plen])
                else:
                    chunk = self._copy_out(body, plen)
                frames.append((src, chunk, more))
                head = body + plen
            self._ptrs[0] = head
        out: list[tuple[int, bytearray]] = []
        for src, chunk, more in frames:
            pending = self._partials.get(src)
            if pending is None and not more:
                out.append((src, chunk))  # common case: single-frame message
                continue
            if pending is None:
                pending = self._partials[src] = bytearray()
            pending += chunk
            if not more:
                out.append((src, pending))
                del self._partials[src]
        return out

    def wait_data(self, timeout: float) -> bool:
        """Block up to ``timeout`` seconds for any queued bytes.

        Fast path: unlocked yield-spins on the shared counters (reads of
        aligned u64s; torn values are impossible) — on a saturated host
        ``sched_yield`` hands the CPU to the producer and the data is
        usually there when we run again, with zero semaphore traffic.
        Slow path: raise the sleeping flag (under the lock, so a racing
        producer must observe it) and sleep on the doorbell.
        """
        for _ in range(_SPIN_YIELDS):
            if self._ptrs[1] != self._ptrs[0]:
                return True
            os.sched_yield()
        with self.lock:
            if self._used() > 0:
                return True
            self._ptrs[2] = 1
        got = self.bell.acquire(True, timeout)
        with self.lock:
            self._ptrs[2] = 0
            queued = self._used() > 0
        if got:
            # absorb any extra posts from producers that raced the flag
            # clear; they would only cause a spurious early wake later
            while self.bell.acquire(False):
                pass
        return queued

    def notify(self) -> None:
        """Wake a consumer blocked on this ring (abort propagation)."""
        self.bell.release()

    def release(self) -> None:
        """Drop the memoryview handles into the shared segment so the
        segment itself can be closed."""
        self._ptrs.release()
        self._data.release()


def ring_segment_size(nranks: int, cap: int) -> int:
    return nranks * (Ring.HDR + cap)


def carve_rings(
    buf: memoryview, nranks: int, cap: int, locks: list, bells: list
) -> "list[Ring]":
    """Slice one shared segment into ``nranks`` rings (locks and doorbell
    semaphores pre-forked so children inherit them)."""
    return [
        Ring(buf, r * (Ring.HDR + cap), cap, locks[r], bells[r])
        for r in range(nranks)
    ]
