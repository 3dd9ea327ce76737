"""The interconnect fabric: per-rank mailboxes with (source, tag) matching.

A :class:`Fabric` is the shared state connecting the simulated ranks of one
SPMD job.  Each rank owns a mailbox; a ``send`` deposits an immutable message
envelope into the destination's mailbox and a ``recv`` blocks until an
envelope matching its ``(source, tag)`` selector is present.  Matching
follows MPI ordering semantics: messages from the same (source, tag) pair are
non-overtaking (delivered in send order), while messages from different
sources may interleave arbitrarily.

The fabric also carries job-global services used by the executor and the
communicators:

* an *abort flag* — set when any rank dies, observed by every blocked call;
* a *timeout* — blocking calls that see no progress for this many seconds
  raise :class:`~repro.runtime.errors.DeadlockError`;
* the *communicator id* counter ``Communicator.split`` draws from.
"""

from __future__ import annotations

import itertools
import threading
from typing import Any, NamedTuple, Sequence

from .errors import CollectiveMismatchError, CommAbort, DeadlockError

#: Wildcard selector accepted by ``recv``: match a message from any source.
ANY_SOURCE = -1
#: Wildcard selector accepted by ``recv``: match a message with any tag.
ANY_TAG = -1

#: Tags at or above this value are reserved for collective operations.
_RESERVED_TAG_BASE = 1 << 30


class Envelope(NamedTuple):
    """An in-flight message: immutable header plus an opaque payload.

    The payload is whatever object the sender passed.  For NumPy arrays the
    communicator copies at send time so the receiver can never observe
    mutations the sender performs after the send returns — the same guarantee
    a real interconnect gives by serializing bytes onto the wire.

    A ``NamedTuple`` rather than a frozen dataclass: one is built per
    message on both backends, and frozen-dataclass construction costs ~1us
    against a namedtuple's ~0.2us.
    """

    source: int
    dest: int
    tag: int
    payload: Any
    serial: int  # fabric-global send order, for deterministic debugging


class Mailbox:
    """One rank's receive queue with condition-variable blocking."""

    def __init__(self, fabric: "Fabric", owner: int) -> None:
        self._fabric = fabric
        self._owner = owner
        self._queue: list[Envelope] = []
        self._cond = threading.Condition()

    def deposit(self, env: Envelope, reorder_u: "float | None" = None) -> None:
        """Queue an envelope; ``reorder_u`` (injected delay) selects a seeded
        insertion slot ahead of queued traffic, but never ahead of an
        envelope from the same ``(source, tag)`` stream — the reordering a
        real adaptively-routed interconnect may legally perform."""
        with self._cond:
            if reorder_u is None or not self._queue:
                self._queue.append(env)
            else:
                floor = 0
                for i, queued in enumerate(self._queue):
                    if queued.source == env.source and queued.tag == env.tag:
                        floor = i + 1  # non-overtaking within the stream
                pos = floor + int(reorder_u * (len(self._queue) + 1 - floor))
                self._queue.insert(pos, env)
            self._cond.notify_all()

    def _match_index(self, source: int, tag: int) -> int | None:
        for i, env in enumerate(self._queue):
            if source not in (ANY_SOURCE, env.source):
                continue
            if tag not in (ANY_TAG, env.tag):
                continue
            return i
        return None

    def collect(self, source: int, tag: int) -> Envelope:
        """Block until an envelope matching (source, tag) arrives; remove and
        return it."""
        deadline_step = self._fabric.timeout
        self._fabric.last_blocked[self._owner] = ("recv", source, tag)
        with self._cond:
            while True:
                if self._fabric.aborted:
                    raise CommAbort(
                        f"rank {self._owner}: job aborted while receiving "
                        f"(source={source}, tag={tag})"
                    )
                idx = self._match_index(source, tag)
                if idx is not None:
                    return self._queue.pop(idx)
                made_progress = self._cond.wait(timeout=deadline_step)
                if not made_progress and self._match_index(source, tag) is None:
                    if self._fabric.aborted:
                        continue  # loop once more to raise CommAbort
                    raise DeadlockError(
                        f"rank {self._owner}: recv(source={source}, tag={tag}) "
                        f"made no progress for {self._fabric.timeout:.1f}s; "
                        f"pending queue: "
                        f"{[(e.source, e.tag) for e in self._queue[:8]]}"
                    )

    def probe(self, source: int, tag: int) -> bool:
        """Non-blocking: is a matching envelope already queued?"""
        with self._cond:
            return self._match_index(source, tag) is not None

    def pending(self) -> int:
        with self._cond:
            return len(self._queue)

    def pending_collective(self) -> list[tuple[int, int]]:
        """(source, tag) of queued envelopes in the reserved collective tag
        space — nonempty after job end means ranks entered mismatched
        collectives that happened to complete without blocking."""
        with self._cond:
            return [
                (e.source, e.tag) for e in self._queue if e.tag >= _RESERVED_TAG_BASE
            ]

    def wake_all(self) -> None:
        """Wake blocked receivers (used when the abort flag flips)."""
        with self._cond:
            self._cond.notify_all()


def describe_blocked_entry(entry: "tuple | None") -> str:
    """Human description of a rank's last blocking operation.

    Shared by every transport: the thread fabric reads its ``last_blocked``
    list, the process transport decodes the same ``(kind, a, b)`` triples
    from the control shared-memory segment of an unresponsive child.
    """
    if entry is None:
        return "never blocked in the runtime (busy or stuck outside it)"
    _, source, tag = entry
    peer = "ANY_SOURCE" if source == ANY_SOURCE else f"rank {source}"
    if tag >= _RESERVED_TAG_BASE:
        packed = tag - _RESERVED_TAG_BASE
        return (
            f"collective recv from {peer} "
            f"(comm {packed >> 32}, collective seq {packed & 0xFFFFFFFF})"
        )
    tag_s = "ANY_TAG" if tag == ANY_TAG else str(tag)
    return f"recv(source={peer}, tag={tag_s})"


def _describe_signature(sig: tuple) -> str:
    """Human form of a collective signature tuple ``(op, root, extra)``."""
    op, root, extra = sig
    parts = []
    if root is not None:
        parts.append(f"root={root}")
    if extra is not None:
        parts.append(f"args={extra}")
    return f"{op}({', '.join(parts)})" if parts else op


class CollectiveTrace:
    """The dynamic collective-divergence checker (``verify=True`` mode).

    Every collective call records a per-rank signature tuple
    ``(op, root, extra)`` keyed by ``(comm_id, seq)`` — the communicator and
    its per-rank collective-call counter.  Because correct SPMD programs
    enter collectives in the same order on every rank of a communicator, the
    n-th collective of one rank must match the n-th collective of its peers:
    the first rank to arrive sets the reference signature and any later
    arrival that disagrees raises :class:`CollectiveMismatchError` with a
    precise diff — instead of the deadlock timeout (mismatched blocking
    pattern) or silent garbage exchange (mismatched but non-blocking
    pattern) the program would otherwise produce.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        # (comm_id, seq) -> [first_rank, signature, arrived, expected]
        self._pending: dict[tuple[int, int], list] = {}
        self.checked = 0

    def record(
        self, comm_id: int, seq: int, rank: int, comm_size: int, signature: tuple
    ) -> None:
        key = (comm_id, seq)
        with self._lock:
            self.checked += 1
            entry = self._pending.get(key)
            if entry is None:
                self._pending[key] = [rank, signature, 1, comm_size]
                return
            first_rank, first_sig, arrived, expected = entry
            if signature != first_sig:
                raise CollectiveMismatchError(
                    f"collective divergence on communicator {comm_id}, "
                    f"collective call #{seq}: rank {first_rank} entered "
                    f"{_describe_signature(first_sig)} but rank {rank} entered "
                    f"{_describe_signature(signature)}; all ranks of a "
                    "communicator must enter the same collective sequence"
                )
            entry[2] = arrived + 1
            if entry[2] >= expected:
                del self._pending[key]

    def incomplete(self) -> list[str]:
        """Collectives some ranks entered but others never did (job ended)."""
        with self._lock:
            return [
                f"comm {comm_id} call #{seq}: {_describe_signature(sig)} "
                f"entered by {arrived}/{expected} ranks (first: rank {first_rank})"
                for (comm_id, seq), (first_rank, sig, arrived, expected)
                in sorted(self._pending.items())
            ]


class Fabric:
    """Shared interconnect for one SPMD job of ``nranks`` simulated ranks."""

    #: Whether this fabric's transport serializes payloads onto a real wire.
    #: ``False`` here: envelopes carry live object references between
    #: threads, so the communicator must copy (``_freeze``) at send time to
    #: get wire semantics.  A serializing fabric (the process backend) makes
    #: that copy redundant — encoding into the ring IS the wire copy — and
    #: the communicator skips it.
    serializes = False

    def __init__(
        self,
        nranks: int,
        timeout: float = 60.0,
        verify: bool = False,
        faults: "Any | None" = None,
    ) -> None:
        if nranks < 1:
            raise ValueError(f"nranks must be >= 1, got {nranks}")
        self.nranks = nranks
        self.timeout = timeout
        #: Optional :class:`~repro.runtime.faults.FaultInjector`.  ``None``
        #: (the default) keeps fault injection zero-cost: every hook site
        #: guards on this attribute with a single ``is None`` check.
        self.faults = faults
        #: Per-rank record of the last blocking operation each rank entered
        #: (``("recv", source, tag)``), kept after the call returns so
        #: hung-rank diagnostics can name what a stuck rank was last
        #: waiting on.
        self.last_blocked: list[tuple | None] = [None] * nranks
        #: Job-progress markers (e.g. ``{"phase": 3}``) published by
        #: long-running SPMD programs; the executor copies them onto the
        #: primary exception so recovery drivers can compute replay spans.
        self.progress: dict[str, int] = {}
        #: When True the dynamic verifiers are armed: every collective call
        #: is checked against its peers' signatures and every one-sided
        #: window access is race-checked (see ``spmd(..., verify=True)``).
        self.verify = verify
        self.collective_trace = CollectiveTrace() if verify else None
        #: Per-rank span tracers (:class:`repro.runtime.trace.Tracer`),
        #: attached by the executor under ``spmd(..., trace=...)``.  ``None``
        #: (the default) keeps tracing zero-cost: every hook site guards on
        #: this attribute with a single ``is None`` check.
        self.tracers: "list[Any] | None" = None
        self._rma_logs: dict[int, Any] = {}
        self.mailboxes = [Mailbox(self, r) for r in range(nranks)]
        self._abort = threading.Event()
        self._serial = itertools.count()
        self._serial_lock = threading.Lock()
        # window registry: window id -> list of per-rank backing arrays
        self._windows: dict[int, list[Any]] = {}
        self._win_locks: dict[int, list[threading.Lock]] = {}
        self._window_lock = threading.Lock()
        self._next_comm_id = itertools.count(1)
        self._next_win_id = itertools.count(1)

    # -- message transport -------------------------------------------------

    @property
    def aborted(self) -> bool:
        return self._abort.is_set()

    def abort(self) -> None:
        """Flip the abort flag and wake every blocked receiver."""
        self._abort.set()
        for mb in self.mailboxes:
            mb.wake_all()

    def deliver(
        self, source: int, dest: int, tag: int, payload: Any,
        reorder_u: "float | None" = None,
    ) -> None:
        if self.aborted:
            raise CommAbort(f"rank {source}: job aborted while sending to {dest}")
        if not 0 <= dest < self.nranks:
            raise ValueError(f"destination rank {dest} out of range [0, {self.nranks})")
        with self._serial_lock:
            serial = next(self._serial)
        self.mailboxes[dest].deposit(Envelope(source, dest, tag, payload, serial), reorder_u)

    def note_progress(self, key: str, value: int) -> None:
        """Publish a monotone job-progress marker (see ``progress``)."""
        if value > self.progress.get(key, -1):
            self.progress[key] = value

    def describe_blocked(self, rank: int) -> str:
        """Human description of ``rank``'s last blocking operation."""
        return describe_blocked_entry(self.last_blocked[rank])

    def collect(self, rank: int, source: int, tag: int) -> Envelope:
        tracers = self.tracers
        if tracers is None:
            return self.mailboxes[rank].collect(source, tag)
        # wait-vs-work split: the mailbox match is the runtime's blocking
        # point, so the time spent inside it is this rank's wait, charged
        # to the innermost open span (usually the enclosing collective)
        tr = tracers[rank]
        t0 = tr.now()
        env = self.mailboxes[rank].collect(source, tag)
        tr.add_wait(tr.now() - t0)
        return env

    def probe(self, rank: int, source: int, tag: int) -> bool:
        return self.mailboxes[rank].probe(source, tag)

    # -- communicator id allocation ----------------------------------------

    def new_comm_id(self) -> int:
        return next(self._next_comm_id)

    # -- window registry -----------------------------------------------------
    #
    # The one-sided layer (``repro.runtime.rma``) talks to window memory only
    # through this small fabric API, so the same :class:`Window` class
    # runs over thread-shared arrays here and over per-rank shared-memory
    # segments in the process fabric:
    #
    # * ``new_win_id``  — job-unique id allocation (rank 0 calls, bcasts);
    # * ``win_create``  — expose ``local`` as rank ``rank``'s slot, return
    #   the per-rank slot table (indexable by target rank);
    # * ``win_locks``   — per-target lock table giving element-wise atomicity;
    # * ``win_sync``    — fence hook: make remote writes visible in the
    #   owner's ``local`` array (no-op here: slots ARE the local arrays);
    # * ``win_publish`` — its mirror for the fence after a ``nosucceed``
    #   one: make the owner's direct stores into ``local`` remotely visible
    #   (no-op here for the same reason);
    # * ``win_detach`` / ``win_destroy`` — the two halves of ``free``
    #   (all ranks stop accessing, then backing storage is released).

    def new_win_id(self) -> int:
        return next(self._next_win_id)

    def win_create(
        self, win_id: int, rank: int, size: int, local: Any,
        group: "Sequence[int] | None" = None,
    ) -> Any:
        with self._window_lock:
            slots = self._windows.setdefault(win_id, [None] * size)
        slots[rank] = local
        return slots

    def win_locks(self, win_id: int, size: int) -> list:
        with self._window_lock:
            table = self._win_locks.get(win_id)
            if table is None:
                table = self._win_locks[win_id] = [
                    threading.Lock() for _ in range(size)
                ]
            return table

    def win_sync(self, win_id: int, rank: int) -> None:
        pass  # threads share the arrays: always consistent

    def win_publish(self, win_id: int, rank: int) -> None:
        pass

    def win_detach(self, win_id: int, rank: int) -> None:
        pass

    def win_destroy(self, win_id: int, rank: int) -> None:
        # every rank calls this after the post-detach barrier; the pops are
        # idempotent so no designated owner is needed
        with self._window_lock:
            self._windows.pop(win_id, None)
            self._win_locks.pop(win_id, None)
            # _rma_logs entries survive the drop: the fabric is per-job, and
            # the verify summary reports totals across freed windows too.

    def rma_log_for(self, win_id: int, factory) -> Any:
        """Shared per-window access log (verify mode); created on first use."""
        with self._window_lock:
            log = self._rma_logs.get(win_id)
            if log is None:
                log = self._rma_logs[win_id] = factory()
            return log

    def rma_ops_checked(self) -> int:
        with self._window_lock:
            return sum(log.total for log in self._rma_logs.values())
