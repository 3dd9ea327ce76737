"""The interconnect fabric: per-rank inboxes with (source, tag) matching.

A fabric is the shared state connecting the ranks of one SPMD job.  Each
rank owns an :class:`Inbox`; ``deliver`` puts an immutable message envelope
on the wire to the destination's inbox and ``collect`` blocks until an
envelope matching its ``(source, tag)`` selector is present.  Every message
belongs to one collective instance, and its tag packs that instance's
``(comm id, collective seq)`` (:func:`split_tag`); the source may be the
``ANY_SOURCE`` wildcard.  Matching follows MPI ordering semantics: messages
from the same (source, tag) pair are non-overtaking (delivered in send
order), while messages from different sources may interleave arbitrarily.

:class:`BaseFabric` holds what is true of every wire — the inbox contract,
the receive-side blocked record and wait accounting, the error texts — and
the job-global services used by the transports and the communicators:

* an *abort flag* — set when any rank dies, observed by every blocked call;
* a *timeout* — blocking calls that see no progress for this many seconds
  raise :class:`~repro.runtime.errors.DeadlockError`;
* the *communicator id* counter ``Communicator.split`` draws from.

:class:`Fabric` is the thread wire (mailbox deposit, condition-variable
wait, arrays shared in one address space); the process wire is
:class:`repro.runtime.procfabric.ProcessFabric`.
"""

from __future__ import annotations

import itertools
import threading
from typing import Any, NamedTuple, Sequence

from .errors import CollectiveMismatchError, CommAbort, DeadlockError

#: Wildcard source selector of ``collect``: match a message from any rank.
ANY_SOURCE = -1


def split_tag(tag: int) -> tuple[int, int]:
    """``(comm id, collective seq)`` of a message tag — the inverse of
    ``Communicator._coll_tag``."""
    return tag >> 32, tag & 0xFFFFFFFF


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


class Inbox:
    """One rank's receive queue: arrival-ordered envelopes with MPI matching.

    The one matching queue under both transports — lock-free by itself; what
    guards and feeds it is the wire's business (:class:`Mailbox` puts it
    behind a condition variable, the process fabric drains its ring into
    it from the owning process only).
    """

    __slots__ = ("queue",)

    def __init__(self) -> None:
        self.queue: list[Envelope] = []

    def deposit(self, env: Envelope, reorder_u: "float | None" = None) -> None:
        """Queue an envelope; ``reorder_u`` (injected delay) selects a seeded
        insertion slot ahead of queued traffic, but never ahead of an
        envelope from the same ``(source, tag)`` stream — the reordering a
        real adaptively-routed interconnect may legally perform."""
        queue = self.queue
        if reorder_u is None or not queue:
            queue.append(env)
            return
        floor = 0
        for i, queued in enumerate(queue):
            if queued.source == env.source and queued.tag == env.tag:
                floor = i + 1  # non-overtaking within the stream
        queue.insert(floor + int(reorder_u * (len(queue) + 1 - floor)), env)

    def find(self, source: int, tag: int) -> int:
        """Index of the first queued envelope with this ``tag`` from
        ``source`` (or from any rank, for ``ANY_SOURCE``), or -1."""
        for i, env in enumerate(self.queue):
            if env.tag == tag and source in (ANY_SOURCE, env.source):
                return i
        return -1

    def take(self, source: int, tag: int) -> "Envelope | None":
        """Match-and-pop: the first matching envelope, or None."""
        i = self.find(source, tag)
        return self.queue.pop(i) if i >= 0 else None

    def take_strays(self) -> list[tuple[int, int]]:
        """Remove every queued envelope and return its (source, tag) — all
        traffic is collective, so anything left after job end means ranks
        entered mismatched collectives that happened to complete without
        blocking."""
        strays = [(e.source, e.tag) for e in self.queue]
        self.queue = []
        return strays


class Mailbox:
    """The thread wire's receive end: an :class:`Inbox` behind the condition
    variable its blocked receiver sleeps on and its senders notify."""

    __slots__ = ("inbox", "cond")

    def __init__(self) -> None:
        self.inbox = Inbox()
        self.cond = threading.Condition()


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
    comm_id, seq = split_tag(tag)
    return f"collective recv from {peer} (comm {comm_id}, collective seq {seq})"


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


class BaseFabric:
    """What a fabric is whatever its wire: the job-global services and the
    receive-side bookkeeping every transport shares.

    A backend supplies three things — ``_transmit`` (how an envelope reaches
    its destination's :class:`Inbox`), ``_await`` (how a blocked receiver
    waits for a match) and the window memory behind the ``win_*`` calls —
    plus ``abort`` / ``aborted`` over whatever its ranks can all see.
    """

    #: Whether this fabric's wire serializes payloads.  ``False`` for the
    #: thread fabric: envelopes carry live object references between
    #: threads, so the communicator must copy (``_freeze``) at send time to
    #: get wire semantics.  A serializing fabric (the process backend) makes
    #: that copy redundant — encoding into the ring IS the wire copy — and
    #: the communicator skips it.
    serializes = False
    #: The dynamic verifiers (``spmd(..., verify=True)``) need one trace
    #: shared by all ranks, which only the thread fabric can arm.
    verify = False
    collective_trace: "CollectiveTrace | None" = None

    def __init__(self, nranks: int, timeout: float, faults: "Any | None") -> None:
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
        self.last_blocked: "Any" = [None] * nranks
        #: Job-progress markers (e.g. ``{"phase": 3}``) published by
        #: long-running SPMD programs; the transport copies them onto the
        #: primary exception so recovery drivers can compute replay spans.
        self.progress: dict[str, int] = {}
        #: Per-rank span tracers (:class:`repro.runtime.trace.Tracer`), each
        #: slot filled by its rank under ``spmd(..., trace=...)``.  ``None``
        #: (the default) keeps tracing zero-cost: one ``is None`` check.
        self.tracers: "list[Any]" = [None] * nranks

    def note_progress(self, key: str, value: int) -> None:
        """Publish a monotone job-progress marker (see ``progress``)."""
        if value > self.progress.get(key, -1):
            self.progress[key] = value

    def describe_blocked(self, rank: int) -> str:
        """Human description of ``rank``'s last blocking operation."""
        return describe_blocked_entry(self.last_blocked[rank])

    # -- message transport -------------------------------------------------

    def deliver(
        self, source: int, dest: int, tag: int, payload: Any,
        reorder_u: "float | None" = None,
    ) -> None:
        if self.aborted:
            raise CommAbort(f"rank {source}: job aborted while sending to {dest}")
        if not 0 <= dest < self.nranks:
            raise ValueError(f"destination rank {dest} out of range [0, {self.nranks})")
        self._transmit(source, dest, tag, payload, reorder_u)

    def collect(self, rank: int, source: int, tag: int) -> Envelope:
        """Block until an envelope matching (source, tag) arrives; remove and
        return it."""
        self.last_blocked[rank] = ("recv", source, tag)
        tr = self.tracers[rank]
        if tr is None:
            return self._await(rank, source, tag)
        # wait-vs-work split: the inbox match is the runtime's blocking
        # point, so the time spent inside it is this rank's wait, charged
        # to the innermost open span (usually the enclosing collective)
        t0 = tr.now()
        env = self._await(rank, source, tag)
        tr.add_wait(tr.now() - t0)
        return env

    def _aborted_receiving(self, rank: int, source: int, tag: int) -> CommAbort:
        return CommAbort(
            f"rank {rank}: job aborted while receiving (source={source}, tag={tag})"
        )

    def _deadlocked(self, rank: int, source: int, tag: int, inbox: Inbox) -> DeadlockError:
        pending = [(e.source, *split_tag(e.tag)) for e in inbox.queue[:8]]
        return DeadlockError(
            f"rank {rank}: {describe_blocked_entry(('recv', source, tag))} "
            f"made no progress for {self.timeout:.1f}s; pending queue "
            f"(source, comm, seq): {pending}"
        )


class Fabric(BaseFabric):
    """The thread wire: ``nranks`` mailboxes in one address space."""

    def __init__(
        self,
        nranks: int,
        timeout: float = 60.0,
        verify: bool = False,
        faults: "Any | None" = None,
    ) -> None:
        super().__init__(nranks, timeout, faults)
        #: When True the dynamic verifiers are armed: every collective call
        #: is checked against its peers' signatures and every one-sided
        #: window access is race-checked (see ``spmd(..., verify=True)``).
        self.verify = verify
        self.collective_trace = CollectiveTrace() if verify else None
        self._rma_logs: dict[int, Any] = {}
        self.mailboxes = [Mailbox() for _ in range(nranks)]
        self._abort = threading.Event()
        self._serial = itertools.count()
        self._serial_lock = threading.Lock()
        # window registry: window id -> list of per-rank backing arrays
        self._windows: dict[int, list[Any]] = {}
        self._win_locks: dict[int, list[threading.Lock]] = {}
        self._window_lock = threading.Lock()
        self._next_comm_id = itertools.count(1)
        self._next_win_id = itertools.count(1)

    # -- the wire: mailbox deposit, condition-variable wait -------------------

    @property
    def aborted(self) -> bool:
        return self._abort.is_set()

    def abort(self) -> None:
        """Flip the abort flag and wake every blocked receiver."""
        self._abort.set()
        for mb in self.mailboxes:
            with mb.cond:
                mb.cond.notify_all()

    def _transmit(
        self, source: int, dest: int, tag: int, payload: Any,
        reorder_u: "float | None",
    ) -> None:
        with self._serial_lock:
            serial = next(self._serial)
        mb = self.mailboxes[dest]
        with mb.cond:
            mb.inbox.deposit(Envelope(source, dest, tag, payload, serial), reorder_u)
            mb.cond.notify_all()

    def _await(self, rank: int, source: int, tag: int) -> Envelope:
        mb = self.mailboxes[rank]
        inbox = mb.inbox
        with mb.cond:
            while True:
                if self.aborted:
                    raise self._aborted_receiving(rank, source, tag)
                env = inbox.take(source, tag)
                if env is not None:
                    return env
                if (
                    not mb.cond.wait(timeout=self.timeout)
                    and inbox.find(source, tag) < 0
                    and not self.aborted  # else loop once more: CommAbort
                ):
                    raise self._deadlocked(rank, source, tag, inbox)

    def take_strays(self, rank: int) -> list[tuple[int, int]]:
        """Leftovers queued at ``rank`` (see :class:`Inbox`)."""
        mb = self.mailboxes[rank]
        with mb.cond:
            return mb.inbox.take_strays()

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
