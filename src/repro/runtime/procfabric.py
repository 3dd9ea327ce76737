"""True-parallel SPMD backend: ranks as forked processes over shm rings.

:class:`ProcessFabric` duck-types the thread :class:`~repro.runtime.fabric.Fabric`
surface the communicators and windows use — ``deliver``/``collect``/``probe``,
id allocation, abort, progress markers, window storage — but every rank is
a real OS process:

* **Point-to-point and collectives** move through per-destination shared
  memory ring buffers (:mod:`repro.runtime.shm`).  Payloads are encoded with
  pickle protocol 5 + out-of-band buffers, so packed int32/bitmap collective
  payloads cross as raw bytes with one copy in (the wire copy — the
  communicator's ``_freeze`` is skipped, see ``Fabric.serializes``) and zero
  copies out (receiver arrays are views over the drained bytes).
* **Abort, progress and hung-rank diagnostics** live in a small control
  segment of int64 slots: the abort flag, shared comm/window id counters,
  and per-rank ``(blocked-kind, a, b, phase)`` records the parent decodes
  with :func:`~repro.runtime.fabric.describe_blocked_entry` when naming a
  stuck child.
* **RMA windows** are per-owner shared-memory segments (created at
  ``win_create``, lazily attached by peers after the creation barrier) with
  element atomicity from a pre-forked striped lock pool.  The owner's
  ``local`` array is copied in at creation and refreshed from the segment
  at each fence and at free (``win_sync``); after a ``nosucceed`` fence the
  owner may store into it directly, and the next fence copies the other way
  (``win_publish``).

The parent process never joins the data plane: it forks the children,
collects their results over pipes, reaps every child (no orphans, even
after ``RankKilledError`` or a hang), merges fired fault tokens back into
its injector, sweeps the rings for stray collective traffic, and raises the
primary error with the same wrapping the thread transport uses.
"""

from __future__ import annotations

import contextlib
import multiprocessing
import multiprocessing.connection as mp_connection
import os
import time
from dataclasses import dataclass
from typing import Any, Sequence

import numpy as np
from multiprocessing import shared_memory

from .comm import CommStats, Communicator
from .errors import CommAbort, CommError, DeadlockError, WindowError
from .fabric import (
    ANY_SOURCE,
    ANY_TAG,
    Envelope,
    _RESERVED_TAG_BASE,
    describe_blocked_entry,
)
from .shm import (
    DEFAULT_RING_BYTES,
    carve_rings,
    decode_header,
    decode_message,
    encode_message,
    ring_segment_size,
)
from .trace import DistTrace, Tracer, make_trace_clock
from .transport import (
    RankOutcome,
    SpmdJob,
    SpmdResult,
    Transport,
    add_fault_span,
    check_stray_collectives,
    raise_primary,
)

#: $REPRO_SHM_RING_BYTES overrides the per-destination ring capacity.
RING_BYTES_ENV = "REPRO_SHM_RING_BYTES"

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


def _ring_bytes() -> int:
    env = os.environ.get(RING_BYTES_ENV)
    return int(env) if env else DEFAULT_RING_BYTES


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


class ProcessFabric:
    """Interconnect state shared (via fork) by the rank processes.

    Constructed in the parent *before* forking so the shared segments,
    conditions and locks are inherited by every child.  After fork each
    child calls :meth:`attach` with its rank; per-process receive state
    (the pending list, reassembly buffers) is private to that process.
    """

    serializes = True  # ring encoding is the wire copy; _freeze is skipped

    def __init__(
        self,
        nranks: int,
        timeout: float = 60.0,
        faults: "Any | None" = None,
        ctx: "multiprocessing.context.BaseContext | None" = None,
    ) -> None:
        if nranks < 1:
            raise ValueError(f"nranks must be >= 1, got {nranks}")
        self.nranks = nranks
        self.timeout = timeout
        self.faults = faults
        self.verify = False
        self.collective_trace = None
        self.tracers = None  # per-process tracer lives on self._tracer
        self.last_blocked: list[tuple | None] = [None] * nranks
        self.progress: dict[str, int] = {}
        self.ctx = ctx if ctx is not None else multiprocessing.get_context("fork")
        self.uid = f"rx{os.getpid() % 0xFFFFF:05x}{os.urandom(2).hex()}"
        cap = _ring_bytes()
        self._ring_shm = shared_memory.SharedMemory(
            name=f"{self.uid}r", create=True,
            size=ring_segment_size(nranks, cap),
        )
        locks = [self.ctx.Lock() for _ in range(nranks)]
        bells = [self.ctx.Semaphore(0) for _ in range(nranks)]
        self.rings = carve_rings(self._ring_shm.buf, nranks, cap, locks, bells)
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
        self._ctl_lock = self.ctx.Lock()
        self._win_lock_pool = [self.ctx.Lock() for _ in range(_WIN_LOCK_POOL)]
        # per-process state (meaningful after attach())
        self.rank: "int | None" = None
        self._pending: list[Envelope] = []
        self._sent = 0
        self._tracer: "Tracer | None" = None
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
        if value > self.progress.get(key, -1):
            self.progress[key] = value
        if key == "phase" and self.rank is not None:
            slot = _CTL_RANK_BASE + _CTL_RANK_STRIDE * self.rank + 3
            if value > self._ctl[slot]:
                self._ctl[slot] = value

    def _set_blocked(self, kind: int, a: int, b: int) -> None:
        if self.rank is None:
            return
        ctl = self._ctl
        base = _CTL_RANK_BASE + _CTL_RANK_STRIDE * self.rank
        ctl[base] = kind
        ctl[base + 1] = a
        ctl[base + 2] = b

    def blocked_entry(self, rank: int) -> "tuple | None":
        """Decode rank's control-segment blocked record (parent side)."""
        base = _CTL_RANK_BASE + _CTL_RANK_STRIDE * rank
        kind, a, b = self._ctl[base], self._ctl[base + 1], self._ctl[base + 2]
        if kind == _BLK_RECV:
            return ("recv", a, b)
        return None

    def describe_blocked(self, rank: int) -> str:
        return describe_blocked_entry(self.blocked_entry(rank))

    def ctl_phase_max(self) -> int:
        """Highest phase marker any rank published (parent side)."""
        return max(
            self._ctl[_CTL_RANK_BASE + _CTL_RANK_STRIDE * r + 3]
            for r in range(self.nranks)
        )

    # -- message transport ---------------------------------------------------

    def _stall(self) -> None:
        """Full-destination-ring hook: keep the buffered-send contract by
        draining our own ring (our peers may be blocked on OUR ring — e.g.
        a mutual ``sendrecv`` — and freeing it unblocks the cycle)."""
        if self.aborted:
            raise CommAbort(f"rank {self.rank}: job aborted while sending")
        if self.rank is not None:
            self._drain_own()

    def deliver(
        self, source: int, dest: int, tag: int, payload: Any,
        reorder_u: "float | None" = None,
    ) -> None:
        if self.aborted:
            raise CommAbort(f"rank {source}: job aborted while sending to {dest}")
        if not 0 <= dest < self.nranks:
            raise ValueError(f"destination rank {dest} out of range [0, {self.nranks})")
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

    def _deposit(self, env: Envelope, reorder_u: "float | None") -> None:
        # same legal-reordering insertion as Mailbox.deposit: an injected
        # delay may jump the queue but never overtakes within (source, tag)
        q = self._pending
        if reorder_u is None or not q:
            q.append(env)
            return
        floor = 0
        for i, queued in enumerate(q):
            if queued.source == env.source and queued.tag == env.tag:
                floor = i + 1
        pos = floor + int(reorder_u * (len(q) + 1 - floor))
        q.insert(pos, env)

    def _drain_own(self) -> int:
        """Move every message queued in our ring into the pending list."""
        msgs = self.rings[self.rank].drain()
        for src, data in msgs:
            tag, payload, serial, reorder_u = decode_message(data)
            self._deposit(Envelope(src, self.rank, tag, payload, serial), reorder_u)
        return len(msgs)

    def _match(self, source: int, tag: int) -> "int | None":
        for i, env in enumerate(self._pending):
            if source not in (ANY_SOURCE, env.source):
                continue
            if tag not in (ANY_TAG, env.tag):
                continue
            return i
        return None

    def collect(self, rank: int, source: int, tag: int) -> Envelope:
        self.last_blocked[rank] = ("recv", source, tag)
        self._set_blocked(_BLK_RECV, source, tag)
        tr = self._tracer
        t0 = tr.now() if tr is not None else 0.0
        try:
            return self._collect(source, tag)
        finally:
            if tr is not None:
                tr.add_wait(tr.now() - t0)

    def _collect(self, source: int, tag: int) -> Envelope:
        # clock reads here are deadlock *observation* (the same role the
        # thread mailbox's condition timeout plays), never algorithm state
        last_progress = time.monotonic()  # repro: noqa[SPMD602]
        while True:
            if self.aborted:
                raise CommAbort(
                    f"rank {self.rank}: job aborted while receiving "
                    f"(source={source}, tag={tag})"
                )
            if self._drain_own():
                last_progress = time.monotonic()  # repro: noqa[SPMD602]
            idx = self._match(source, tag)
            if idx is not None:
                return self._pending.pop(idx)
            if self.rings[self.rank].wait_data(timeout=0.05):
                continue
            if time.monotonic() - last_progress > self.timeout:  # repro: noqa[SPMD602]
                raise DeadlockError(
                    f"rank {self.rank}: recv(source={source}, tag={tag}) "
                    f"made no progress for {self.timeout:.1f}s; "
                    f"pending queue: "
                    f"{[(e.source, e.tag) for e in self._pending[:8]]}"
                )

    def probe(self, rank: int, source: int, tag: int) -> bool:
        self._drain_own()
        return self._match(source, tag) is not None

    def pending_collective(self) -> list[tuple[int, int]]:
        """Reserved-tag leftovers still queued at this rank (rank side)."""
        self._drain_own()
        return [
            (e.source, e.tag) for e in self._pending
            if e.tag >= _RESERVED_TAG_BASE
        ]

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

    # -- verify-surface stubs (process backend never arms the verifiers) -----

    def rma_log_for(self, win_id: int, factory) -> Any:  # pragma: no cover
        raise CommError("verify mode is thread-backend only")

    def rma_ops_checked(self) -> int:
        return 0

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
    comm = Communicator(fabric, comm_id=0, group=range(fabric.nranks), rank=rank)
    tracer = None
    if job.clock_kind:
        tracer = Tracer(rank, make_trace_clock(job.clock_kind))
        fabric._tracer = tracer  # noqa: SLF001 - wait accounting in collect
        comm.tracer = tracer
    out: dict[str, Any] = {"ok": True, "value": None, "error": None}
    try:
        out["value"] = job.fn(comm, *job.args, **job.kwargs)
    except BaseException as exc:  # noqa: BLE001 - shipped to the parent
        out["ok"] = False
        out["error"] = exc
        fabric.abort()
        if tracer is not None:
            add_fault_span(tracer, exc)
    finally:
        if tracer is not None:
            tracer.flush()
        out["stats"] = comm.stats
        out["progress"] = dict(fabric.progress)
        out["fired"] = (
            sorted(fabric.faults.fired_tokens()) if fabric.faults is not None else []
        )
        out["fault_events"] = (
            list(fabric.faults.events[rank]) if fabric.faults is not None else []
        )
        out["fault_model"] = (
            (fabric.faults.model_seconds[rank], dict(fabric.faults.phase_ledger))
            if fabric.faults is not None
            else (0.0, {})
        )
        try:
            out["pending_coll"] = fabric.pending_collective()
        except Exception:
            out["pending_coll"] = []
        out["spans"] = list(tracer.spans) if tracer is not None else None
        out["idle"] = tracer.idle_wait if tracer is not None else 0.0
        _ship(conn, out, rank)
        # the shipped error's traceback pins frames whose locals hold numpy
        # views over window segments; drop it so close_child can unmap them
        out["error"] = None
        out["value"] = None
        fabric.close_child()
        conn.close()


def _ship(conn, out: dict, rank: int) -> None:
    """Send the result dict; degrade to a stringified error rather than die
    silently when a value or exception object refuses to pickle."""
    try:
        conn.send(out)
        return
    except Exception:
        pass
    reason = (
        f"{type(out['error']).__name__}: {out['error']}"
        if out.get("error") is not None
        else "return value is not picklable (the process backend ships "
        "results over a pipe)"
    )
    fallback = dict(
        out,
        value=None,
        error=CommError(f"rank {rank}: {reason}"),
        ok=False,
        spans=None,
    )
    try:
        conn.send(fallback)
    except Exception:
        pass


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
        results: list[dict | None] = [None] * nranks
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

            self._gather(job, fabric, conns, results)
            hung = [r for r in range(nranks) if results[r] is None and procs[r].is_alive()]
            if hung:
                fabric.abort()
            for proc in procs:
                proc.join(timeout=job.join_grace)
            # late results from ranks the abort unblocked
            for r in range(nranks):
                if results[r] is None and conns[r].poll():
                    results[r] = self._recv(conns[r], r)
            self._reap(procs)

            outcomes = [RankOutcome() for _ in range(nranks)]
            progress: dict[str, int] = {}
            for r, res in enumerate(results):
                if res is None:
                    if r not in hung:
                        # died without reporting (hard kill, fatal signal)
                        outcomes[r].error = CommError(
                            f"rank {r} process exited without reporting "
                            f"(exit code {procs[r].exitcode})"
                        )
                        outcomes[r].finished = True
                    continue  # hung: finished stays False -> TimeoutError
                outcomes[r].finished = True
                if res["ok"]:
                    outcomes[r].value = res["value"]
                else:
                    outcomes[r].error = res["error"]
                for key, value in res.get("progress", {}).items():
                    progress[key] = max(progress.get(key, value), value)
                if job.faults is not None:
                    job.faults.absorb_fired(res.get("fired", ()))
                    job.faults.absorb_events(r, res.get("fault_events", ()))
                    seconds, marks = res.get("fault_model", (0.0, {}))
                    job.faults.absorb_model(r, seconds, marks)
            phase = fabric.ctl_phase_max()
            if phase >= 0:
                progress["phase"] = max(progress.get("phase", phase), phase)

            dist_trace = None
            if job.clock_kind:
                dist_trace = DistTrace(
                    nranks,
                    spans=[
                        list((res or {}).get("spans") or []) for res in results
                    ],
                    meta={
                        "clock": job.clock_kind,
                        "idle_wait": [
                            float((res or {}).get("idle", 0.0)) for res in results
                        ],
                    },
                )

            pids = [proc.pid for proc in procs]
            raise_primary(
                outcomes, progress, dist_trace,
                lambda r: (
                    f"spmd rank {r} (pid {pids[r]}) failed to terminate; "
                    f"last blocked operation: {fabric.describe_blocked(r)}"
                ),
            )

            # stray collective sweep: leftovers each rank reported from its
            # pending list, plus whatever still sits undrained in the rings
            # (children are joined; the parent is the only reader now)
            stray: list[list[tuple[int, int]]] = [[] for _ in range(nranks)]
            for r, res in enumerate(results):
                for src, tag in (res or {}).get("pending_coll", ()):
                    stray[r].append((src, tag))
            for r in range(nranks):
                for src, data in fabric.rings[r].drain():
                    tag, _ = decode_header(data)
                    if tag >= _RESERVED_TAG_BASE:
                        stray[r].append((src, tag))
            check_stray_collectives(stray)

            return SpmdResult(
                values=[oc.value for oc in outcomes],
                stats=[
                    (res or {}).get("stats") or CommStats() for res in results
                ],
                verify_summary=None,
                trace=dist_trace,
            )
        finally:
            self._reap(procs)
            fabric.close_parent()

    def _gather(
        self, job: SpmdJob, fabric: ProcessFabric, conns: list, results: list
    ) -> None:
        """Collect result dicts until all arrive or the join backstop (the
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
    def _recv(conn, rank: int) -> "dict | None":
        try:
            return conn.recv()
        except EOFError:
            return None  # died without reporting (hard kill)
        except Exception:
            return {
                "ok": False,
                "error": CommError(f"rank {rank}: result could not be decoded"),
                "value": None, "stats": CommStats(), "progress": {},
                "fired": [], "pending_coll": [], "spans": None, "idle": 0.0,
            }

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
