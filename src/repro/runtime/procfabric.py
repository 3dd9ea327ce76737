"""True-parallel SPMD backend: ranks as forked processes over shm rings.

:class:`ProcessFabric` is a :class:`~repro.runtime.fabric.BaseFabric` whose
wire is real: every rank is an OS process, and only what a wire is differs
from the thread :class:`~repro.runtime.fabric.Fabric` — matching, wait
accounting, the rank shell and the job tail are the shared ones.

* **The wire** — messages move through per-destination shared memory ring
  buffers (:mod:`repro.runtime.shm`).  Payloads are encoded with pickle
  protocol 5 + out-of-band buffers, so packed int32/bitmap collective
  payloads cross as raw bytes with one copy in (the wire copy — the
  communicator's ``_freeze`` is skipped, see ``BaseFabric.serializes``) and
  zero copies out (receiver arrays are views over the drained bytes).
* **The wait primitive** — a blocked receiver drains its own ring into its
  :class:`~repro.runtime.fabric.Inbox` and sleeps on the ring's doorbell.
* **Abort, progress and hung-rank diagnostics** live in a small control
  segment of int64 slots: the abort flag, shared comm/window id counters,
  and per-rank ``(blocked-kind, a, b, phase)`` records (``last_blocked``
  is a view over them) the parent reads when naming a stuck child.
* **Window memory** — per-owner shared-memory segments (created at
  ``win_create``, lazily attached by peers after the creation barrier) with
  element atomicity from a pre-forked striped lock pool.  The owner's
  ``local`` array is copied in at creation and refreshed from the segment
  at each fence and at free (``win_sync``); after a ``nosucceed`` fence the
  owner may store into it directly, and the next fence copies the other way
  (``win_publish``).

The parent process never joins the data plane: it forks the children,
collects each one's pickled :class:`~repro.runtime.transport.RankOutcome`
over a pipe, reaps every child (no orphans, even after ``RankKilledError``
or a hang) and hands the outcomes to the shared
:func:`~repro.runtime.transport.finish`.
"""

from __future__ import annotations

import contextlib
import multiprocessing
import multiprocessing.connection as mp_connection
import os
import pickle
import time
from dataclasses import dataclass
from typing import Any, Sequence

import numpy as np
from multiprocessing import shared_memory

from .errors import CommAbort, CommError, WindowError
from .fabric import BaseFabric, Envelope, Inbox
from .shm import (
    RING_BYTES,
    carve_rings,
    decode_message,
    encode_message,
    ring_segment_size,
)
from .transport import (
    RankOutcome,
    SpmdJob,
    SpmdResult,
    Transport,
    finish,
    run_rank,
)

#: pre-forked striped lock pool size for window element atomicity
_WIN_LOCK_POOL = 32

# control-segment slot indices (int64)
_CTL_ABORT = 0
_CTL_NEXT_COMM = 1
_CTL_NEXT_WIN = 2
_CTL_RANK_BASE = 4
_CTL_RANK_STRIDE = 4  # kind, a, b, phase

# blocked-kind codes mirrored into the control segment
_BLK_NONE, _BLK_RECV = 0, 1


def _attach(name: str) -> shared_memory.SharedMemory:
    """Attach an existing segment.

    Python (< 3.13) registers attach-side handles with the resource tracker
    too.  This backend only ever forks, so parent and children share one
    tracker process whose per-name cache is a set: the duplicate register is
    idempotent and the creator's eventual ``unlink`` clears the single
    entry.  Do NOT ``unregister`` here — that would strip the creator's
    entry and make its ``unlink`` trip a KeyError inside the tracker.
    """
    return shared_memory.SharedMemory(name=name)


@dataclass
class _OwnWindow:
    """Owner-side state of one window slot backed by a shm segment."""

    seg: shared_memory.SharedMemory
    arr: np.ndarray  # view into seg
    local: np.ndarray  # the user's array win_sync/detach refresh


class _ProcSlots:
    """Window slot table: ``slots[target]`` is target's exposed memory.

    The owner's slot is its shm-backed view (so its own window ops are
    remotely visible); peer slots attach lazily on first access — safe
    because :class:`~repro.runtime.rma.Window` barriers after creation.
    """

    def __init__(self, fabric: "ProcessFabric", win_id: int, size: int,
                 own_rank: int) -> None:
        self._fabric = fabric
        self._win_id = win_id
        self._size = size
        self._own_rank = own_rank

    def __len__(self) -> int:
        return self._size

    def __getitem__(self, target: int) -> np.ndarray:
        if target == self._own_rank:
            # looked up (not captured) so the slot table holds no view into
            # the segment and win_destroy's close() can unmap it
            own = self._fabric._win_own.get(self._win_id)  # noqa: SLF001
            if own is None:
                raise WindowError(f"window {self._win_id} is already freed")
            return own.arr
        return self._fabric.attach_window_slot(self._win_id, target)


class _CtlBlocked:
    """``fabric.last_blocked`` over the control segment: a rank's store
    lands where the parent can read it while the child is stuck."""

    def __init__(self, ctl) -> None:
        self._ctl = ctl

    def __setitem__(self, rank: int, entry: tuple) -> None:
        ctl = self._ctl
        base = _CTL_RANK_BASE + _CTL_RANK_STRIDE * rank
        ctl[base] = _BLK_RECV
        ctl[base + 1] = entry[1]
        ctl[base + 2] = entry[2]

    def __getitem__(self, rank: int) -> "tuple | None":
        base = _CTL_RANK_BASE + _CTL_RANK_STRIDE * rank
        kind, a, b = self._ctl[base:base + 3]
        return ("recv", a, b) if kind == _BLK_RECV else None


class ProcessFabric(BaseFabric):
    """The process wire: state shared (via fork) by the rank processes.

    Constructed in the parent *before* forking so the shared segments,
    conditions and locks are inherited by every child.  After fork each
    child calls :meth:`attach` with its rank; per-process receive state
    (the inbox, reassembly buffers) is private to that process.
    """

    serializes = True  # ring encoding is the wire copy; _freeze is skipped

    def __init__(
        self,
        nranks: int,
        timeout: float = 60.0,
        faults: "Any | None" = None,
        ctx: "multiprocessing.context.BaseContext | None" = None,
    ) -> None:
        super().__init__(nranks, timeout, faults)
        self.ctx = ctx if ctx is not None else multiprocessing.get_context("fork")
        self.uid = f"rx{os.getpid() % 0xFFFFF:05x}{os.urandom(2).hex()}"
        self._ring_shm = shared_memory.SharedMemory(
            name=f"{self.uid}r", create=True,
            size=ring_segment_size(nranks, RING_BYTES),
        )
        locks = [self.ctx.Lock() for _ in range(nranks)]
        bells = [self.ctx.Semaphore(0) for _ in range(nranks)]
        self.rings = carve_rings(self._ring_shm.buf, nranks, RING_BYTES, locks, bells)
        self._ctl_shm = shared_memory.SharedMemory(
            name=f"{self.uid}c", create=True,
            size=8 * (_CTL_RANK_BASE + _CTL_RANK_STRIDE * nranks),
        )
        # cast memoryview, not numpy: the abort flag and blocked records
        # are touched on every message, and plain-int indexing is ~20x
        # cheaper than numpy scalar access
        self._ctl = self._ctl_shm.buf.cast("q")
        for i in range(len(self._ctl)):
            self._ctl[i] = 0
        self._ctl[_CTL_NEXT_COMM] = 1
        self._ctl[_CTL_NEXT_WIN] = 1
        for r in range(nranks):
            self._ctl[_CTL_RANK_BASE + _CTL_RANK_STRIDE * r + 3] = -1  # phase
        self.last_blocked = _CtlBlocked(self._ctl)
        self._ctl_lock = self.ctx.Lock()
        self._win_lock_pool = [self.ctx.Lock() for _ in range(_WIN_LOCK_POOL)]
        # per-process state (meaningful after attach())
        self.rank: "int | None" = None
        self.inbox = Inbox()
        self._sent = 0
        self._win_own: dict[int, _OwnWindow] = {}
        self._win_attached: dict[tuple[int, int], tuple] = {}

    def attach(self, rank: int) -> None:
        """Bind this (forked) process to its rank."""
        self.rank = rank

    # -- abort / progress ----------------------------------------------------

    @property
    def aborted(self) -> bool:
        return self._ctl[0] != 0  # _CTL_ABORT, inlined: read per message

    def abort(self) -> None:
        self._ctl[_CTL_ABORT] = 1
        for ring in self.rings:
            ring.notify()  # wake peers blocked on full/empty rings

    def note_progress(self, key: str, value: int) -> None:
        super().note_progress(key, value)
        if key == "phase" and self.rank is not None:
            slot = _CTL_RANK_BASE + _CTL_RANK_STRIDE * self.rank + 3
            if value > self._ctl[slot]:
                self._ctl[slot] = value

    def ctl_phase_max(self) -> int:
        """Highest phase marker any rank published (parent side; -1 = none)."""
        return max(
            self._ctl[_CTL_RANK_BASE + _CTL_RANK_STRIDE * r + 3]
            for r in range(self.nranks)
        )

    # -- the wire: codec + ring write, doorbell + drain wait -----------------

    def _stall(self) -> None:
        """Full-destination-ring hook: keep the buffered-send contract by
        draining our own ring (our peers may be blocked on OUR ring — e.g.
        two ranks sending to each other in one pairwise all-to-all round —
        and freeing it unblocks the cycle)."""
        if self.aborted:
            raise CommAbort(f"rank {self.rank}: job aborted while sending")
        if self.rank is not None:
            self._drain(self.rank)

    def _transmit(
        self, source: int, dest: int, tag: int, payload: Any,
        reorder_u: "float | None",
    ) -> None:
        self._sent += 1
        # sender-scoped serial (debugging only; arrival order is what
        # matching uses) — a fabric-global counter would need a lock per send
        serial = (source << 32) | (self._sent & 0xFFFFFFFF)
        self.rings[dest].write(
            source,
            encode_message(tag, payload, serial, reorder_u),
            stall=self._stall,
            timeout=self.timeout,
            describe=f"rank {source}: send to rank {dest} (tag {tag})",
        )

    def _drain(self, rank: int) -> int:
        """Move every message queued in ``rank``'s ring into the inbox (the
        owning child drains its own; the parent sweeps after the join)."""
        msgs = self.rings[rank].drain()
        for src, data in msgs:
            tag, payload, serial, reorder_u = decode_message(data)
            self.inbox.deposit(Envelope(src, rank, tag, payload, serial), reorder_u)
        return len(msgs)

    def _await(self, rank: int, source: int, tag: int) -> Envelope:
        # clock reads here are deadlock *observation* (the same role the
        # thread wire's condition timeout plays), never algorithm state
        last_progress = time.monotonic()  # repro: noqa[SPMD602]
        inbox, ring = self.inbox, self.rings[rank]
        while True:
            if self.aborted:
                raise self._aborted_receiving(rank, source, tag)
            if self._drain(rank):
                last_progress = time.monotonic()  # repro: noqa[SPMD602]
            env = inbox.take(source, tag)
            if env is not None:
                return env
            if ring.wait_data(timeout=0.05):
                continue
            if time.monotonic() - last_progress > self.timeout:  # repro: noqa[SPMD602]
                raise self._deadlocked(rank, source, tag, inbox)

    def take_strays(self, rank: int) -> list[tuple[int, int]]:
        """Leftovers of ``rank``: what its ring and the inbox hold (see
        :class:`~repro.runtime.fabric.Inbox`)."""
        self._drain(rank)
        return self.inbox.take_strays()

    # -- id allocation -------------------------------------------------------

    def _bump(self, slot: int) -> int:
        with self._ctl_lock:
            value = self._ctl[slot]
            self._ctl[slot] = value + 1
        return value

    def new_comm_id(self) -> int:
        return self._bump(_CTL_NEXT_COMM)

    def new_win_id(self) -> int:
        return self._bump(_CTL_NEXT_WIN)

    # -- RMA windows ---------------------------------------------------------

    def _seg_name(self, win_id: int, target: int) -> str:
        return f"{self.uid}w{win_id}s{target}"

    def win_create(
        self, win_id: int, rank: int, size: int, local: np.ndarray,
        group: "Sequence[int] | None" = None,
    ) -> _ProcSlots:
        seg = shared_memory.SharedMemory(
            name=self._seg_name(win_id, rank), create=True,
            size=32 + max(8, local.nbytes),
        )
        dts = local.dtype.str.encode("ascii").ljust(16, b" ")
        seg.buf[:16] = dts
        np.frombuffer(seg.buf, np.int64, 1, 16)[0] = local.size
        arr = np.frombuffer(seg.buf, local.dtype, local.size, 32)
        arr[:] = local  # copy-in: the segment is the remotely visible truth
        self._win_own[win_id] = _OwnWindow(seg, arr, local)
        return _ProcSlots(self, win_id, size, rank)

    def attach_window_slot(self, win_id: int, target: int) -> np.ndarray:
        key = (win_id, target)
        cached = self._win_attached.get(key)
        if cached is not None:
            return cached[1]
        try:
            seg = _attach(self._seg_name(win_id, target))
        except FileNotFoundError:
            # a failing rank aborts the job before it unlinks its segments,
            # so a segment gone during an abort is the dead target's
            if self.aborted:
                raise CommAbort(f"rank {self.rank}: rank {target} died with its window") from None
            raise WindowError(
                f"target rank {target} never attached its memory"
            ) from None
        dtype = np.dtype(bytes(seg.buf[:16]).decode("ascii").strip())
        nelems = int(np.frombuffer(seg.buf, np.int64, 1, 16)[0])
        arr = np.frombuffer(seg.buf, dtype, nelems, 32)
        self._win_attached[key] = (seg, arr)
        return arr

    def win_locks(self, win_id: int, size: int) -> list:
        pool = self._win_lock_pool
        return [pool[(win_id * 131 + t) % len(pool)] for t in range(size)]

    def win_sync(self, win_id: int, rank: int) -> None:
        own = self._win_own.get(win_id)
        if own is not None:
            own.local[:] = own.arr  # surface remote puts in the owner's array

    def win_publish(self, win_id: int, rank: int) -> None:
        own = self._win_own.get(win_id)
        if own is not None:
            own.arr[:] = own.local  # surface the owner's stores in the segment

    def win_detach(self, win_id: int, rank: int) -> None:
        for key in [k for k in self._win_attached if k[0] == win_id]:
            seg, arr = self._win_attached.pop(key)
            del arr  # the view must die before the segment can unmap
            # a live traceback (e.g. ``free()`` in a user's finally) can
            # still pin a view; the mapping then dies with the process
            with contextlib.suppress(BufferError):
                seg.close()

    def win_destroy(self, win_id: int, rank: int) -> None:
        own = self._win_own.pop(win_id, None)
        if own is None:
            return
        seg, own.arr, own.seg = own.seg, None, None  # views must die first
        with contextlib.suppress(BufferError):
            seg.close()
        try:
            seg.unlink()
        except FileNotFoundError:
            pass

    # -- teardown ------------------------------------------------------------

    def close_child(self) -> None:
        """Child-exit cleanup: release window segments this rank still holds
        (error paths); ring/control segments die with the parent.  Best
        effort — a view still pinned by some live frame raises BufferError
        on close, and the parent's abandoned-segment sweep reclaims the
        name, so never let teardown kill an otherwise clean exit."""
        for win_id in list(self._win_own):
            with contextlib.suppress(BufferError):
                self.win_detach(win_id, self.rank)
                self.win_destroy(win_id, self.rank)
        for key in list(self._win_attached):
            seg, arr = self._win_attached.pop(key)
            del arr
            with contextlib.suppress(BufferError):
                seg.close()

    def close_parent(self) -> None:
        """Parent-exit cleanup: rings, control segment, and a sweep for
        window segments children abandoned (killed mid-epoch)."""
        max_win = self._ctl[_CTL_NEXT_WIN]
        for ring in self.rings:
            ring.release()
        self._ctl.release()
        self._ctl = None
        for seg in (self._ring_shm, self._ctl_shm):
            try:
                seg.close()
                seg.unlink()
            except FileNotFoundError:
                pass
        for win_id in range(1, max_win):
            for t in range(self.nranks):
                try:
                    leftover = _attach(self._seg_name(win_id, t))
                except FileNotFoundError:
                    continue
                leftover.close()
                try:
                    leftover.unlink()
                except FileNotFoundError:
                    pass


# ---------------------------------------------------------------------------
# the child process entry point
# ---------------------------------------------------------------------------


def _rank_child(fabric: ProcessFabric, rank: int, job: SpmdJob, conn) -> None:
    """Module-level so any start method can resolve it; under fork the
    fabric (rings, control segment, locks) arrives by inheritance."""
    fabric.attach(rank)
    out = run_rank(fabric, rank, job)
    conn.send_bytes(out.wire_bytes(rank))
    # the shipped error's traceback pins frames whose locals hold numpy
    # views over window segments; drop it so close_child can unmap them
    out.error = out.value = None
    fabric.close_child()
    conn.close()


# ---------------------------------------------------------------------------
# the transport
# ---------------------------------------------------------------------------


class ProcessTransport(Transport):
    """Ranks as forked OS processes over shared-memory rings.

    Bit-identical to the thread transport on deterministic programs (the
    parity suite pins mates and ``CommStats.by_alg`` ledgers across
    backends); requires picklable ``fn``/args/results; ``verify=True`` is
    rejected upstream by :func:`~repro.runtime.executor.resolve_backend`.
    """

    name = "process"

    def run(self, job: SpmdJob) -> SpmdResult:
        nranks = job.nranks
        fabric = ProcessFabric(
            nranks, timeout=job.timeout, faults=job.faults,
        )
        procs: list = []
        conns: list = []
        outcomes: "list[RankOutcome | None]" = [None] * nranks
        try:
            for r in range(nranks):
                parent_end, child_end = fabric.ctx.Pipe(duplex=False)
                proc = fabric.ctx.Process(
                    target=_rank_child, args=(fabric, r, job, child_end),
                    name=f"spmd-rank-{r}", daemon=True,
                )
                proc.start()
                child_end.close()
                procs.append(proc)
                conns.append(parent_end)

            self._gather(job, fabric, conns, outcomes)
            hung = [r for r in range(nranks) if outcomes[r] is None and procs[r].is_alive()]
            if hung:
                fabric.abort()
            for proc in procs:
                proc.join(timeout=job.join_grace)
            # late results from ranks the abort unblocked
            for r in range(nranks):
                if outcomes[r] is None and conns[r].poll():
                    outcomes[r] = self._recv(conns[r], r)
            self._reap(procs)

            for r in range(nranks):
                if outcomes[r] is None:
                    # hung: finished stays False -> TimeoutError; otherwise
                    # it died without reporting (hard kill, fatal signal)
                    outcomes[r] = RankOutcome() if r in hung else RankOutcome(
                        error=CommError(
                            f"rank {r} process exited without reporting "
                            f"(exit code {procs[r].exitcode})"
                        ),
                        finished=True,
                    )
            # the control segment also counts ranks that never reported
            fabric.note_progress("phase", fabric.ctl_phase_max())
            return finish(
                job, fabric, outcomes,
                lambda r: f"spmd rank {r} (pid {procs[r].pid})",
            )
        finally:
            self._reap(procs)
            fabric.close_parent()

    def _gather(
        self, job: SpmdJob, fabric: ProcessFabric, conns: list, results: list
    ) -> None:
        """Collect rank outcomes until all arrive or the join backstop (the
        same ``timeout * 4`` the thread transport uses) expires.

        A child that dies without reporting (hard kill, fatal signal) shows
        up as pipe EOF here; abort the fabric right away so peers blocked
        on the dead rank raise ``CommAbort`` now instead of each waiting
        out its own deadlock window — their aborts are suppressed by
        ``raise_primary`` and the dead rank's exit-code error stays primary.
        """
        remaining = {id(conn): r for r, conn in enumerate(conns)}
        live = list(conns)
        deadline = time.monotonic() + job.timeout * 4
        while live and time.monotonic() < deadline:
            ready = mp_connection.wait(live, timeout=0.2)
            for conn in ready:
                r = remaining.pop(id(conn))
                live.remove(conn)
                results[r] = self._recv(conn, r)
                if results[r] is None and not fabric.aborted:
                    fabric.abort()

    @staticmethod
    def _recv(conn, rank: int) -> "RankOutcome | None":
        try:
            return pickle.loads(conn.recv_bytes())
        except EOFError:
            return None  # died without reporting (hard kill)
        except Exception:  # noqa: BLE001 - whatever the user's __reduce__ raises
            return RankOutcome(
                error=CommError(f"rank {rank}: result could not be decoded"),
                finished=True,
            )

    @staticmethod
    def _reap(procs: list) -> None:
        """No orphans, ever: escalate terminate -> kill on leftovers."""
        for proc in procs:
            if proc.is_alive():
                proc.terminate()
        for proc in procs:
            if proc.is_alive():
                proc.join(timeout=1.0)
        for proc in procs:
            if proc.is_alive():
                proc.kill()
                proc.join(timeout=1.0)
