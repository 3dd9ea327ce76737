"""MPI-like communicators over the simulated fabric.

Every collective below is implemented on top of the fabric's tagged
``deliver`` / ``collect`` primitives, with the latency-aware algorithm
production MPIs pick for small payloads (Thakur et al.'s MPICH optimization
work, which the paper credits — via CombBLAS — for the 2D SpMV's
scalability):

============  =====================  =======================
collective    algorithm              α-β cost
============  =====================  =======================
barrier       dissemination          α·⌈log₂p⌉
bcast         binomial tree          (α + βW)·⌈log₂p⌉
reduce        binomial tree          (α + βW)·⌈log₂p⌉
allreduce     recursive doubling     (α + βW)·~⌈log₂p⌉
allgather(v)  dissemination (Bruck)  α⌈log₂p⌉ + βW(p-1)/p
alltoall(v)   pairwise exchange      α(p-1) + βW
gather        direct to root         α(p-1) + βW at root
scatter       direct from root       α(p-1) + βW at root
============  =====================  =======================

The six round-based algorithms keep no peer arithmetic here: *who talks
to whom in which round* is data, one pure function per algorithm in
:mod:`repro.runtime.schedules`, and :meth:`Communicator._walk` is the one
place a schedule meets the fabric.  A collective supplies only what it
sends in a round and what it does with what it receives; its ``steps``
(the latency term) is the length of the schedule.  The matching cost
*formulas* live in :mod:`repro.perfmodel.collectives` and are tested
against the schedules; this module moves real data with the same
communication patterns, so integration tests can check that measured
message counts equal the model's predictions.  :attr:`CommStats.by_alg`
counts calls/messages/words/steps per (collective, algorithm) pair, and
every collective runs inside one frame (:meth:`Communicator._collective`)
that owns its sequence number, trace span, divergence check, fault entry
point and ``by_alg`` attribution.

Superstep aggregation splits the ledger in two.  The **logical** ledger
above is invariant: counters, ``by_alg``, trace spans and every
fault-injection hook fire per logical message of the schedule, whether or
not that message travels individually.  The **physical** ledger
(:attr:`CommStats.frames` / ``frame_words``) counts what actually hits the
fabric.  Which physical plan a communicator runs is read off its size, not
set by anyone (:data:`_HUB_MIN_RANKS`): with **p ≥ 3** ranks the four
rootless round-based collectives (barrier, doubling allreduce,
dissemination allgather, pairwise alltoall) swap their physical schedule
for a hub star wave through comm rank 0 — 2(p-1) frames per call, which
undercuts the schedules' p·⌈log₂p⌉ or p(p-1) messages exactly from p = 3 —
while the walker *replays* the round-based schedule, charging its exact
per-message ledger without moving data.  With **p ≤ 2** the star cannot
save a frame (2(p-1) *is* the schedule's message count), so the
communicator walks its schedules for real — which *is* the definition of
the logical ledger the replay must reproduce; results are bit-identical
either way.  There is one send path under both plans: a message is on the
fabric when its send returns (:meth:`Communicator._dispatch`, the one place
a frame is counted), so frame counts are a property of the plan alone.

**The wire's integer width.**  Every ``int64`` array crosses the wire at
the narrowest integer dtype holding its [min, max]
(:func:`~repro.runtime.pack.wire_dtype`) and arrives as the ``int64``
array that was sent: the thread wire narrows in its send-time copy
(:func:`_wire`) and widens on receipt (:func:`_widen`), the process ring
in its codec (:mod:`repro.runtime.shm`).  Both ledgers count the narrowed
bytes, except a reduction's (``reduce`` / ``allreduce``), counted at full
width: its in-flight partial sums, hence their ranges, depend on the plan.
A width is a property of the values sent, so the logical ledger stays the
same on both backends and under both plans.
"""

from __future__ import annotations

import copy
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Sequence

import numpy as np

from .errors import CollectiveMismatchError, TransientCommError
from .fabric import ANY_SOURCE, Fabric
from .pack import wire_dtype
from .schedules import LEFT, REPLACE, binomial, dissemination, doubling, pairwise, swap


class ReduceOp:
    """A named, associative reduction operator usable by reduce/allreduce.

    ``fn`` combines two values (scalars or NumPy arrays of equal shape) and
    must be associative; commutativity is also assumed, as in MPI's built-in
    operators.  The runtime predefines only :data:`SUM`, the one operator
    the engines reduce with.
    """

    def __init__(self, name: str, fn: Callable[[Any, Any], Any]) -> None:
        self.name = name
        self.fn = fn

    def __call__(self, a: Any, b: Any) -> Any:
        return self.fn(a, b)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ReduceOp({self.name})"


SUM = ReduceOp("sum", lambda a, b: a + b)


#: Smallest communicator that runs the hub/star physical plan.  A star
#: wave is 2(p-1) frames; the schedules it replaces put p·⌈log₂p⌉
#: (barrier, allgather), p(p-1) (alltoall) or p'·log₂p' + 2(p-p')
#: (doubling allreduce, p' the power of two below p) messages on the
#: fabric.  At p = 2 all of them are 2, so the star saves nothing and only
#: adds a ``(rank, item)`` wrapper, an any-source receive and a second hop
#: for each rank's own all-to-all block; from p = 3 the star is strictly
#: fewer frames for barrier, allgather and alltoall and never more for
#: allreduce (a 4 = 4 tie at p = 3, fewer from p = 4).  DESIGN §15 has the
#: wall-clock measurements.  Derived, not tunable: read once, in
#: ``Communicator.__init__``.
_HUB_MIN_RANKS = 3


@dataclass
class CommStats:
    """Per-rank communication counters (messages and payload words).

    ``words`` counts 8-byte words for NumPy payloads (the unit the paper's β
    is expressed in) at the width each array crosses the wire in — an
    ``int64`` array's range width, a reduction's at full width (see the
    module docstring); non-array payloads count as one word per Python
    object.
    ``by_alg`` breaks the collectives down per algorithm:
    ``{"op:alg": {"calls", "messages", "words", "steps"}}`` where ``steps``
    is the algorithm's sequential round count (the latency term the α-β
    model charges), identical on every rank.

    ``messages_sent``/``words_sent``/``by_alg`` are the
    **logical** ledger: they count the algorithm's schedule and
    are invariant under aggregation.  ``frames``/``frame_words`` are the
    **physical** ledger: actual fabric deposits/ring writes.  On a
    communicator of at most two ranks every message is its own frame
    (``frames == messages_sent``); from three ranks up the hub plans drive
    ``frames`` well below ``messages_sent`` — the quantity BENCH gates on.
    """

    messages_sent: int = 0
    words_sent: int = 0
    by_alg: dict[str, dict[str, int]] = field(default_factory=dict)
    #: physical frames this rank put on the fabric, and the payload words
    #: they carried (>= words_sent under the hub plans: star waves move
    #: some payloads twice, trading words for a large frame reduction)
    frames: int = 0
    frame_words: int = 0
    #: total transient-failure retries and their per-op breakdown (only
    #: nonzero under fault injection; logical message counts above are
    #: unaffected by retries — a retried send still counts once)
    retries: int = 0
    retries_by_op: dict[str, int] = field(default_factory=dict)

    def record(self, words: int) -> None:
        """Count one logical message of ``words`` payload words."""
        self.messages_sent += 1
        self.words_sent += words

    def record_alg(self, op: str, alg: str, messages: int, words: int, steps: int) -> None:
        d = self.by_alg.setdefault(
            f"{op}:{alg}", {"calls": 0, "messages": 0, "words": 0, "steps": 0}
        )
        d["calls"] += 1
        d["messages"] += messages
        d["words"] += words
        d["steps"] += steps

    def record_frame(self, words: int) -> None:
        """Count one physical frame carrying ``words`` payload words."""
        self.frames += 1
        self.frame_words += words

    def record_retry(self, op: str) -> None:
        self.retries += 1
        self.retries_by_op[op] = self.retries_by_op.get(op, 0) + 1


#: the collectives whose words are counted at full width: a reduction's
#: in-flight partial sums depend on the plan, so a ledger counting their
#: narrowed width would not be aggregation-invariant
_FULL_WIDTH = frozenset({"reduce", "allreduce"})


class _Narrow:
    """An ``int64`` array on the thread wire at its
    :func:`~repro.runtime.pack.wire_dtype`; :func:`_widen` restores it on
    receipt."""

    __slots__ = ("a",)

    def __init__(self, a: np.ndarray) -> None:
        self.a = a


def _wire(payload: Any, copy: bool, narrow: bool = True) -> "tuple[Any, int]":
    """``(what crosses the wire, its words)`` in one pass over the payload.

    ``words`` counts each array's 8-byte words at the width it crosses in —
    an ``int64`` array at its :func:`~repro.runtime.pack.wire_dtype` unless
    ``narrow`` is off — and one word per other object.  With ``copy`` the
    payload is copied at send time (wire semantics for a fabric that passes
    references), each narrowed array into a :class:`_Narrow`; without, it
    is returned as it is, for a serializing fabric whose codec narrows and
    copies it."""
    if isinstance(payload, np.ndarray):
        dt = wire_dtype(payload) if narrow else payload.dtype
        words = (payload.size * dt.itemsize + 7) // 8
        if not copy:
            return payload, words
        if dt == payload.dtype:
            return payload.copy(), words
        return _Narrow(payload.astype(dt, order="C")), words
    if isinstance(payload, (tuple, list)):
        wired = [_wire(x, copy, narrow) for x in payload]
        words = sum(w for _, w in wired)
        if not copy:
            return payload, words
        items = (x for x, _ in wired)
        return (tuple(items) if isinstance(payload, tuple) else list(items)), words
    return (_freeze(payload) if copy else payload), 1


def _widen(payload: Any) -> Any:
    """A received thread-wire payload with each :class:`_Narrow` widened
    back to the ``int64`` array that was sent."""
    t = type(payload)
    if t is _Narrow:
        return payload.a.astype(np.int64)
    if t is tuple or t is list:
        return t(_widen(x) for x in payload)
    return payload


def _payload_words(payload: Any, narrow: bool = True) -> int:
    """The words :func:`_wire` counts for ``payload``."""
    return _wire(payload, False, narrow)[1]


def _payload_sig(payload: Any) -> tuple:
    """Canonical payload signature for the collective-trace checker.

    NumPy arrays compare by (dtype, shape) — mismatched shapes in a
    reduction combine garbage.  All numeric scalars canonicalize to one
    bucket: ``int`` on one rank vs ``np.int64`` on another is legitimate.
    """
    if isinstance(payload, np.ndarray):
        return ("ndarray", str(payload.dtype), tuple(payload.shape))
    if isinstance(payload, (bool, int, float, complex, np.generic)):
        return ("scalar",)
    return (type(payload).__name__,)


def _freeze(payload: Any) -> Any:
    """A private copy of a payload at its own widths: what a collective
    keeps of its own contribution, so no later mutation by the caller is
    observed in the result."""
    if isinstance(payload, np.ndarray):
        return payload.copy()
    if isinstance(payload, tuple):
        return tuple(_freeze(x) for x in payload)
    if isinstance(payload, list):
        return [_freeze(x) for x in payload]
    if isinstance(payload, (int, float, bool, str, bytes, type(None), np.generic)):
        return payload
    return copy.deepcopy(payload)


def _doubling_fold(vals: "list[Any]", op: "ReduceOp") -> Any:
    """Fold ``vals`` with the exact reduction tree recursive doubling
    evaluates (fold-in pairs, then a balanced tree with the lower rank's
    contribution on the left).  The aggregated allreduce hub uses this so
    its result is bit-identical to the unaggregated schedule for *any*
    operator, order-sensitive float sums included."""
    p = len(vals)
    if p == 1:
        return vals[0]
    pof2 = 1 << (p.bit_length() - 1)
    rem = p - pof2
    core = [op(vals[2 * i], vals[2 * i + 1]) for i in range(rem)]
    core.extend(vals[2 * rem:])
    while len(core) > 1:
        core = [op(core[i], core[i + 1]) for i in range(0, len(core), 2)]
    return core[0]


class _Frame:
    """The open frame of one collective — what ``with
    comm._collective(...) as seq`` holds.  A plain class rather than
    ``@contextmanager``: a frame opens thousands of times per solve, and
    the generator machinery tripled its cost (it showed in the null-
    collective floors)."""

    __slots__ = ("_comm", "_opname", "_alg", "_steps", "_seq", "_tok", "_before")

    def __init__(self, comm, opname, alg, steps, seq, tok, before) -> None:
        self._comm = comm
        self._opname = opname
        self._alg = alg
        self._steps = steps
        self._seq = seq
        self._tok = tok
        self._before = before

    def __enter__(self) -> int:
        return self._seq

    def __exit__(self, exc_type, exc, tb) -> bool:
        # An exception skips the epilogue: the tracer closes a dead rank's
        # open spans as truncated, and nothing is attributed.
        if exc_type is None:
            self._comm._end_alg(self._opname, self._alg, self._before, self._steps)
            self._comm._trace_end(self._tok, self._alg, self._steps)
        return False


class Communicator:
    """The per-rank handle of one process group.

    ``group`` lists the *global* fabric ranks belonging to this communicator,
    ordered by communicator rank; ``self.rank`` is this rank's position in
    that list.  The base communicator created by the executor covers all
    fabric ranks; sub-communicators (e.g. the process-grid row and column
    communicators used by the 2D SpMV) are created with :meth:`split`.
    """

    def __init__(
        self,
        fabric: Fabric,
        comm_id: int,
        group: Sequence[int],
        rank: int,
    ) -> None:
        self.fabric = fabric
        self.comm_id = comm_id
        self.group = list(group)
        self.rank = rank
        self.size = len(self.group)
        #: Hub/star physical plan, or walk the schedules — chosen from the
        #: size alone (see ``_HUB_MIN_RANKS``).
        self._hub = self.size >= _HUB_MIN_RANKS
        self.stats = CommStats()
        #: Optional per-rank span tracer (:class:`repro.runtime.trace.Tracer`),
        #: attached by the executor under ``spmd(..., trace=...)`` and
        #: inherited by :meth:`split`.  ``None`` (the default) keeps tracing
        #: zero-cost: every hook is a single attribute check.
        self.tracer: "Any | None" = None
        self._coll_seq = 0
        if self.group[rank] < 0 or self.group[rank] >= fabric.nranks:
            raise ValueError("communicator group contains out-of-range fabric rank")
        # This rank's round schedules depend only on (size, rank[, root]):
        # built once here, not per call.
        self._barrier_rounds = dissemination(self.size, rank)
        self._allgather_rounds = swap(self._barrier_rounds)
        self._allreduce_rounds = doubling(self.size, rank)
        self._alltoall_rounds = pairwise(self.size, rank)
        self._bcast_rounds: dict[int, list[tuple]] = {}  # by root, on first use

    # -- the wire -------------------------------------------------------------

    @property
    def global_rank(self) -> int:
        return self.group[self.rank]

    def _fault_sleep(self, seconds: float, category: str) -> None:
        """Sleep injected adversity time, visible in traces.

        Every injected sleep (retry backoff) emits a
        ``cat="fault"`` span carrying ``{category, rank, seconds}`` so
        ``repro trace-report`` can attribute adversity time instead of it
        vanishing into apparent compute time.
        """
        tr = self.tracer
        if tr is None:
            time.sleep(seconds)
            return
        t0 = tr.now()
        time.sleep(seconds)
        tr.add_complete(
            "fault:delay",
            ts=t0,
            dur=tr.now() - t0,
            cat="fault",
            category=category,
            rank=self.global_rank,
            seconds=seconds,
        )

    def _fault_effects(self, op: str, dest_global: int) -> "float | None":
        """Run the injector's per-message protocol for one *logical*
        message and return its reorder draw.

        Transient send failures are retried with capped exponential
        backoff and counted on :class:`CommStats`; a send still failing
        after the retry budget re-raises :class:`TransientCommError` as a
        permanent failure.  The aggregated physical plans call this once
        per message of the *logical* schedule (via :meth:`_logical_send`),
        so fault decision streams and retries replay bit-for-bit whether or
        not the message travels individually.
        """
        faults = self.fabric.faults
        policy = faults.retry
        attempt = 0
        while True:
            try:
                reorder_u = faults.on_send(self.global_rank)
            except TransientCommError:
                attempt += 1
                self.stats.record_retry(op)
                if attempt > policy.max_retries:
                    raise TransientCommError(
                        f"rank {self.global_rank}: send to fabric rank "
                        f"{dest_global} (op {op}) still failing after "
                        f"{policy.max_retries} retries"
                    ) from None
                self._fault_sleep(policy.delay(attempt), "retry-backoff")
                continue
            return reorder_u

    def _dispatch(
        self, dest_global: int, tag: int, payload: Any,
        reorder_u: "float | None", words: int,
    ) -> None:
        """Physical send — the one place a message meets the fabric, so the
        one place a frame is counted."""
        self.stats.record_frame(words)
        self.fabric.deliver(self.global_rank, dest_global, tag, payload, reorder_u)

    def _logical_send(self, op: str, dest: int, words: int) -> "float | None":
        """Ledger one message of a round-based schedule: logical counters
        and the full per-message fault protocol (zero-cost when no injector
        is armed).  Returns the reorder draw for a send that travels
        (:meth:`_coll_send`); a physical plan that replaces the schedule
        calls it alone.  ``dest`` is a communicator rank."""
        self.stats.record(words)
        if self.fabric.faults is None:
            return None
        return self._fault_effects(op, self.group[dest])

    # -- collective plumbing --------------------------------------------------

    def _coll_tag(self, seq: int) -> int:
        # Packing (comm_id, seq) gives every collective *instance* its own
        # tag (:func:`~repro.runtime.fabric.split_tag` unpacks it): an
        # any-source receive inside one collective can never match a
        # message belonging to a different collective or communicator.
        return (self.comm_id << 32) + seq

    def _coll_send(self, dest: int, payload: Any, opname: str, seq: int) -> None:
        """One message of a walked schedule: its logical ledger, then the
        wire."""
        # Copy at send time (wire semantics): receivers own their data.  A
        # serializing fabric's ring encoding already makes that copy.
        wire, words = _wire(payload, not self.fabric.serializes, opname not in _FULL_WIDTH)
        reorder_u = self._logical_send(opname, dest, words)
        self._dispatch(
            self.group[dest], self._coll_tag(seq), (opname, self.comm_id, seq, wire),
            reorder_u, words,
        )

    def _phys_send(self, dest: int, body: Any, opname: str, seq: int) -> None:
        """One physical-plan message: sent with the collective's
        tag/wrapper but NO logical-ledger or fault effects — those replay
        separately via :meth:`_logical_send`."""
        wire, words = _wire(body, not self.fabric.serializes, opname not in _FULL_WIDTH)
        self._dispatch(
            self.group[dest], self._coll_tag(seq), (opname, self.comm_id, seq, wire),
            None, words,
        )

    def _coll_recv(self, source: int, opname: str, seq: int) -> Any:
        """Receive one message of this collective instance from ``source``
        — or, with ``ANY_SOURCE``, from whichever rank delivers next
        (gather's root, the star wave's hub: senders then label their
        payload with their rank)."""
        src_global = ANY_SOURCE if source == ANY_SOURCE else self.group[source]
        env = self.fabric.collect(self.global_rank, src_global, self._coll_tag(seq))
        got_op, got_comm, got_seq, payload = env.payload
        if got_op != opname or got_comm != self.comm_id or got_seq != seq:
            sender = "a peer" if source == ANY_SOURCE else f"rank {source}"
            raise CollectiveMismatchError(
                f"rank {self.rank} (comm {self.comm_id}) in {opname}#{seq} "
                f"received {got_op}#{got_seq} from {sender} "
                f"(comm {got_comm}): ranks entered different collectives"
            )
        return payload if self.fabric.serializes else _widen(payload)

    def _walk(
        self, opname: str, seq: int, rounds: "list[tuple]",
        send: "Callable[[int], Any] | None" = None,
        recv: "Callable[[int, Any], None] | None" = None,
        words: "Callable[[int], int] | None" = None,
    ) -> None:
        """Walk this rank's ``rounds`` of a :mod:`.schedules` schedule —
        the one place a round-based schedule meets the fabric.

        *Execute* (``send``/``recv``): in round ``t`` send ``send(t)`` to
        the round's send peer, then hand what the receive peer sent to
        ``recv(t, payload)``.  *Replay* (``words``): a hub wave moves the
        data, so each send round only charges the logical ledger (and runs
        the fault protocol) for the ``words(t)``-word message it *would*
        have sent — same destination, same words, same per-rank order,
        which is what keeps ``by_alg`` and fault streams
        aggregation-invariant.
        """
        if words is not None:
            for t, rnd in enumerate(rounds):
                if rnd[0] is not None:
                    self._logical_send(opname, rnd[0], words(t))
            return
        for t, rnd in enumerate(rounds):
            if rnd[0] is not None:
                self._coll_send(rnd[0], send(t), opname, seq)
            if rnd[1] is not None:
                recv(t, self._coll_recv(rnd[1], opname, seq))

    def _hub_exchange(
        self, opname: str, seq: int, item: Any,
        down_items: "Callable[[list[Any]], list[Any]]",
    ) -> Any:
        """The aggregated physical schedule shared by the planned rootless
        collectives — 2(p-1) frames per wave, independent of the logical
        round count: every non-hub rank puts one ``(rank, item)`` frame
        toward comm rank 0, the hub (its own ``item`` in slot 0) computes
        the per-destination results with ``down_items(ups)`` and sends one
        frame back to each rank.  Returns this rank's down payload (the
        hub: ``down_items(ups)[0]``)."""
        p = self.size
        if self.rank != 0:
            self._phys_send(0, (self.rank, item), opname, seq)
            return self._coll_recv(0, opname, seq)
        ups: list[Any] = [None] * p
        ups[0] = item
        for _ in range(p - 1):
            src, up = self._coll_recv(ANY_SOURCE, opname, seq)
            ups[src] = up
        downs = down_items(ups)
        for dst in range(1, p):
            self._phys_send(dst, downs[dst], opname, seq)
        return downs[0]

    def _next_seq(self) -> int:
        self._coll_seq += 1
        return self._coll_seq

    def _verify(self, op: str, seq: int, root: int | None = None, extra: tuple | None = None) -> None:
        """Record this rank's entry into a collective with the divergence
        checker (active only under ``spmd(..., verify=True)``).

        Raises :class:`CollectiveMismatchError` immediately when this rank's
        n-th collective disagrees with a peer's n-th collective — op, root,
        or (for reductions) operator/payload signature.

        This is also the collective-entry fault point: a plan scheduling a
        crash at this rank's Nth collective fires here, before any peer
        traffic for the collective is generated.
        """
        faults = self.fabric.faults
        if faults is not None:
            faults.on_collective(self.global_rank)
        trace = self.fabric.collective_trace
        if trace is not None:
            trace.record(self.comm_id, seq, self.rank, self.size, (op, root, extra))

    def _begin_alg(self) -> tuple[int, int]:
        """Snapshot (messages, words) so the per-algorithm delta can be
        attributed after the collective's traffic completes."""
        return self.stats.messages_sent, self.stats.words_sent

    def _end_alg(self, op: str, alg: str, before: tuple[int, int], steps: int) -> None:
        self.stats.record_alg(
            op, alg,
            self.stats.messages_sent - before[0],
            self.stats.words_sent - before[1],
            steps,
        )

    def _trace_begin(self, opname: str, **args: Any) -> "tuple[int, int] | None":
        """Open one comm span and snapshot (messages, words) — the same
        counters :meth:`_begin_alg` snapshots, and no traffic happens
        between the two snapshot points, so a span's word delta equals its
        ``by_alg`` delta *exactly* (the cross-check invariant the traced
        benchmark asserts).  Returns ``None`` with tracing off."""
        tr = self.tracer
        if tr is None:
            return None
        tr.begin(opname, cat="comm", comm=self.comm_id, peers=self.size, **args)
        return self.stats.messages_sent, self.stats.words_sent

    def _trace_end(self, tok: "tuple[int, int] | None", alg: str, steps: int) -> None:
        if tok is None:
            return
        self.tracer.end(
            alg=alg,
            steps=steps,
            messages=self.stats.messages_sent - tok[0],
            words=self.stats.words_sent - tok[1],
        )

    def _collective(
        self, opname: str, alg: str, steps: int,
        root: "int | None" = None, extra: "tuple | None" = None, **span: Any,
    ) -> _Frame:
        """The frame every collective runs inside: ``with
        self._collective(...) as seq``.  Entry takes the next slot of the
        per-rank collective sequence, opens the trace span, checks in with
        the divergence verifier (also the collective-entry fault point) and
        snapshots the ledger; a normal exit attributes the traffic in
        between to ``opname:alg`` with ``steps`` latency steps and closes
        the span."""
        seq = self._next_seq()
        if root is not None:
            span = {"root": root, **span}
        tok = self._trace_begin(opname, **span)
        self._verify(opname, seq, root=root, extra=extra)
        return _Frame(self, opname, alg, steps, seq, tok, self._begin_alg())

    # -- collectives ----------------------------------------------------------

    def barrier(self) -> None:
        """Dissemination barrier: ⌈log₂p⌉ rounds (one star wave on a
        hub-plan communicator)."""
        rounds = self._barrier_rounds
        with self._collective("barrier", "dissemination", len(rounds)) as seq:
            if self._hub:
                self._walk("barrier", seq, rounds, words=lambda t: 1)
            else:
                self._walk(
                    "barrier", seq, rounds, lambda t: None, lambda t, got: None
                )
        if self._hub:
            self._hub_exchange("barrier", seq, None, lambda ups: [None] * self.size)

    # -- bcast ---------------------------------------------------------------

    def _tree_rounds(self, root: int) -> "list[tuple]":
        """This rank's binomial broadcast rounds for ``root``."""
        rounds = self._bcast_rounds.get(root)
        if rounds is None:
            rounds = self._bcast_rounds[root] = binomial(self.size, self.rank, root)
        return rounds

    def bcast(self, payload: Any, root: int = 0) -> Any:
        """Binomial-tree broadcast from ``root``; returns the payload on
        all ranks (a private copy on each non-root rank)."""
        rounds = self._tree_rounds(root)
        with self._collective("bcast", "binomial", len(rounds), root=root) as seq:
            # root: keep a private copy
            held = _freeze(payload) if self.rank == root else None

            def take(t: int, got: Any) -> None:
                nonlocal held
                held = got

            self._walk("bcast", seq, rounds, lambda t: held, take)
        return held

    # -- gather / scatter ------------------------------------------------------

    def gather(self, payload: Any, root: int = 0) -> list[Any] | None:
        """Direct gather: every rank sends its payload to ``root``; root
        returns the list ordered by rank, others return ``None``."""
        out: "list[Any] | None" = None
        with self._collective("gather", "direct", self.size - 1, root=root) as seq:
            if self.rank == root:
                out = [None] * self.size
                out[root] = _freeze(payload)
                for _ in range(self.size - 1):
                    src, item = self._coll_recv(ANY_SOURCE, "gather", seq)
                    out[src] = item
            else:
                self._coll_send(root, (self.rank, payload), "gather", seq)
        return out

    def scatter(self, payloads: Sequence[Any] | None, root: int = 0) -> Any:
        """Root distributes ``payloads[i]`` to rank ``i``; returns own piece."""
        with self._collective("scatter", "direct", self.size - 1, root=root) as seq:
            if self.rank == root:
                if payloads is None or len(payloads) != self.size:
                    raise ValueError("scatter root must supply one payload per rank")
                for dst in range(self.size):
                    if dst != root:
                        self._coll_send(dst, payloads[dst], "scatter", seq)
                out = _freeze(payloads[root])
            else:
                out = self._coll_recv(root, "scatter", seq)
        return out

    # -- allgather -------------------------------------------------------------

    def allgather(self, payload: Any) -> list[Any]:
        """Dissemination (Bruck) allgather; returns the list of payloads
        ordered by rank.

        After the round at distance k, rank r holds blocks r .. r+2k-1
        (mod p) in acquisition order and forwards the first min(k, p-k) of
        them next, so the last round may carry only a partial batch
        (non-power-of-two p): p-1 blocks per rank in ⌈log₂p⌉ rounds.

        Under the hub plan one star wave carries every block (2(p-1)
        frames) and the rounds are replayed afterwards — their exact
        per-message word counts are computable then, because every rank
        holds all block sizes.
        """
        p, r = self.size, self.rank
        rounds = self._allgather_rounds

        def batch(t: int) -> int:
            return min(1 << t, p - (1 << t))  # round t has distance k = 2^t

        with self._collective("allgather", "dissemination", len(rounds)) as seq:
            # blocks travel as (source rank, block) pairs — receivers need
            # no arithmetic to place them — so each costs its words plus one
            if self._hub:
                out = list(self._hub_exchange(
                    "allgather", seq, _freeze(payload), lambda ups: [ups] * p
                ))
                bw = [1 + _payload_words(block) for block in out]
                self._walk(
                    "allgather", seq, rounds,
                    words=lambda t: sum(bw[(r + i) % p] for i in range(batch(t))),
                )
            else:
                held = [(r, _freeze(payload))]
                self._walk(
                    "allgather", seq, rounds,
                    lambda t: held[:batch(t)],
                    lambda t, got: held.extend(got),
                )
                out = [None] * p
                for src, item in held:
                    out[src] = item
        return out

    def allgatherv(self, payload: Any) -> list[Any]:
        """Alias of :meth:`allgather` (payloads may differ in size)."""
        return self.allgather(payload)

    # -- alltoall ---------------------------------------------------------------

    def alltoall(self, payloads: Sequence[Any]) -> list[Any]:
        """Personalized all-to-all by pairwise exchange (p-1 send-and-receive
        rounds, minimum volume): ``payloads[i]`` is destined for rank
        ``i``; returns the list of payloads received, indexed by source
        rank.

        Under the hub plan each rank ships its whole payload row up in one
        frame, the hub repacks per destination and ships one frame back
        down.  Word volume roughly doubles physically (rows travel up and
        repacked columns travel down) but frames drop from p(p-1) to
        2(p-1) per call — the α-dominated regime this engine targets —
        while the ledger replays pairwise's p-1 per-destination sends.
        """
        if len(payloads) != self.size:
            raise ValueError(
                f"alltoall needs exactly {self.size} payloads, got {len(payloads)}"
            )
        p, r = self.size, self.rank
        rounds = self._alltoall_rounds

        def block(t: int) -> Any:
            return payloads[rounds[t][0]]

        with self._collective("alltoall", "pairwise", len(rounds)) as seq:
            if self._hub:
                self._walk(
                    "alltoall", seq, rounds, words=lambda t: _payload_words(block(t))
                )
                row = list(payloads)
                if r == 0:
                    row[0] = _freeze(row[0])  # the hub's own block skips the wire
                out = list(self._hub_exchange(
                    "alltoall", seq, row,
                    lambda rows: [[rows[s][d] for s in range(p)] for d in range(p)],
                ))
            else:
                out = [None] * p
                out[r] = _freeze(payloads[r])

                def store(t: int, got: Any) -> None:
                    out[rounds[t][1]] = got

                self._walk("alltoall", seq, rounds, block, store)
        return out

    def alltoallv(self, payloads: Sequence[Any]) -> list[Any]:
        """Alias of :meth:`alltoall` (variable-size payloads)."""
        return self.alltoall(payloads)

    # -- reductions ---------------------------------------------------------------

    def reduce(self, payload: Any, op: ReduceOp = SUM, root: int = 0) -> Any:
        """Binomial-tree reduction to ``root`` (the broadcast tree walked
        leaves first); returns the reduced value at root and ``None``
        elsewhere."""
        rounds = swap(self._tree_rounds(root))[::-1]
        with self._collective(
            "reduce", "binomial", len(rounds), root=root,
            extra=(op.name,) + _payload_sig(payload), op=op.name,
        ) as seq:
            acc = _freeze(payload)

            def fold(t: int, other: Any) -> None:
                nonlocal acc
                acc = op(acc, other)

            self._walk("reduce", seq, rounds, lambda t: acc, fold)
        return acc if self.rank == root else None

    def allreduce(self, payload: Any, op: ReduceOp = SUM) -> Any:
        """Recursive-doubling reduction returning the result on every rank
        (MPICH's algorithm, with the fold-in/fold-out rounds for
        non-power-of-two p).

        Under the hub plan: one up-frame per rank to the hub, which
        evaluates the same reduction tree (:func:`_doubling_fold`, so
        order-sensitive operators agree bitwise) and ships one result frame
        back down — 2(p-1) physical frames instead of ~p·log p messages.
        """
        rounds = self._allreduce_rounds
        with self._collective(
            "allreduce", "doubling", len(rounds),
            extra=(op.name,) + _payload_sig(payload), op=op.name,
        ) as seq:
            if self._hub:
                nwords = _payload_words(payload, narrow=False)
                self._walk("allreduce", seq, rounds, words=lambda t: nwords)
                acc = self._hub_exchange(
                    "allreduce", seq, _freeze(payload),
                    lambda ups: [_doubling_fold(ups, op)] * self.size,
                )
            else:
                acc = _freeze(payload)

                def combine(t: int, other: Any) -> None:
                    nonlocal acc
                    side = rounds[t][2]
                    if side == REPLACE:
                        acc = other
                    else:
                        acc = op(other, acc) if side == LEFT else op(acc, other)

                self._walk("allreduce", seq, rounds, lambda t: acc, combine)
        return acc

    # -- communicator management ----------------------------------------------

    def split(self, color: int, key: int | None = None) -> "Communicator":
        """Partition this communicator into disjoint sub-communicators.

        All ranks with equal ``color`` land in the same new communicator,
        ordered by ``(key, old rank)``.  Like ``MPI_Comm_split``, this is a
        collective over the parent communicator, so it consumes a slot of
        the same per-rank collective sequence the tagged collectives use.

        The rendezvous is a message exchange: members report ``(rank,
        color, key)`` to comm rank 0, which sorts each colour, draws the
        new communicator ids in ascending-colour order — so the assignment
        is a function of the arguments, not of arrival order or backend —
        and replies.  The messages carry the collective's tag and wrapper,
        so a peer sitting in a different collective raises
        :class:`CollectiveMismatchError` at once; they are bookkeeping, not
        traffic of the program: outside both ledgers, the frame count and
        the fault plan.  A 1-rank communicator's split sends nothing and
        books no latency step.
        """
        with self._collective("split", "rendezvous", int(self.size > 1), color=color) as seq:
            key = self.rank if key is None else key
            tag = self._coll_tag(seq)

            def post(dest: int, body: tuple) -> None:
                self.fabric.deliver(
                    self.global_rank, self.group[dest], tag,
                    ("split", self.comm_id, seq, body),
                )

            if self.rank != 0:
                post(0, (self.rank, color, key))
                new_id, members = self._coll_recv(0, "split", seq)
            else:
                colors: dict[int, list[tuple[int, int]]] = {color: [(key, 0)]}
                for _ in range(self.size - 1):
                    member, c, k = self._coll_recv(ANY_SOURCE, "split", seq)
                    colors.setdefault(c, []).append((k, member))
                for c in sorted(colors):
                    ranks = tuple(member for _, member in sorted(colors[c]))
                    reply = (self.fabric.new_comm_id(), ranks)
                    for member in ranks:
                        if member != 0:
                            post(member, reply)
                    if c == color:
                        new_id, members = reply
            child = Communicator(
                self.fabric, new_id, [self.group[r] for r in members],
                members.index(self.rank),
            )
            child.tracer = self.tracer
        return child

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Communicator(id={self.comm_id}, rank={self.rank}/{self.size})"
