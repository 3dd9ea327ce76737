"""The transport interface: how one SPMD job's ranks run.

A *transport* is spawn / join / reap: it builds its fabric (the wire), gives
each rank an execution context running the one rank shell
(:func:`run_rank`), waits for the :class:`RankOutcome` each produces (with
the hung-rank backstop), and hands them to the one job tail
(:func:`finish`).  The layers above — communicators, collectives (``split``
included: it is a message exchange written once in
:mod:`~repro.runtime.comm`), windows, the matching engines — never see
which transport they run on, and a transport never sees what runs on it:
restarting a failed job is the caller's business
(``repro.matching.job.launch``).

Two implementations ship:

* :class:`ThreadTransport` (``backend="thread"``, the default) — ranks are
  daemon threads over the in-process :class:`~repro.runtime.fabric.Fabric`
  mailboxes; the shell fills its outcome in place.
* ``ProcessTransport`` (``backend="process"``, in
  :mod:`repro.runtime.procfabric`) — ranks are forked OS processes
  exchanging messages through ``multiprocessing.shared_memory`` ring
  buffers, so rank parallelism is real and engine wins show up in
  wall-clock, not just counters; the shell's outcome crosses a pipe pickled.

What the shell and the tail guarantee on both (the cross-backend parity
suite asserts the observable parts):

1. ``fn(comm, *args, **kwargs)`` runs once per rank with a base
   communicator of ``comm_id=0`` covering ranks ``0..nranks-1``;
2. on any rank's failure, abort propagates so peers unwind with
   :class:`~repro.runtime.errors.CommAbort`, then the primary error is
   re-raised wrapped as ``type(err)(f"[spmd rank {r}] ...")`` with
   ``spmd_rank`` / ``spmd_progress`` / ``spmd_trace`` attached
   (:func:`raise_primary`) — what a recovery driver reads to decide
   whether, and from which phase, to relaunch;
3. a rank that never terminates is named via :class:`TimeoutError` carrying
   its last blocked operation, and no execution contexts are left behind —
   threads are daemonic, processes are reaped;
4. a clean job fails loudly on undrained collective traffic
   (:func:`check_stray_collectives`).
"""

from __future__ import annotations

import abc
import pickle
import threading
from dataclasses import dataclass, field, replace
from typing import Any, Callable

from .comm import Communicator, CommStats
from .errors import CollectiveMismatchError, CommAbort, CommError
from .fabric import BaseFabric, Fabric
from .trace import DistTrace, Tracer, make_trace_clock


@dataclass
class SpmdResult:
    """Outcome of one SPMD job: per-rank return values and comm statistics."""

    values: list[Any]
    stats: list[CommStats]
    nranks: int = 0
    #: Verification counters when the job ran with ``verify=True``
    #: (``{"collectives_checked": ..., "rma_ops_checked": ...}``), else None.
    verify_summary: "dict[str, int] | None" = None
    #: Merged per-rank span timeline when the job ran with ``trace=...``
    #: (:class:`~repro.runtime.trace.DistTrace`), else None.
    trace: "DistTrace | None" = None

    def __post_init__(self) -> None:
        self.nranks = len(self.values)

    def __iter__(self):
        return iter(self.values)

    def __getitem__(self, rank: int) -> Any:
        return self.values[rank]

    @property
    def total_messages(self) -> int:
        return sum(s.messages_sent for s in self.stats)

    @property
    def total_words(self) -> int:
        return sum(s.words_sent for s in self.stats)


@dataclass
class RankOutcome:
    """Everything one rank reports back: filled by :func:`run_rank` on the
    rank's own thread, or in its forked child and pickled over the pipe.
    The default instance is a rank that never reported."""

    value: Any = None
    error: BaseException | None = None
    finished: bool = False
    stats: CommStats = field(default_factory=CommStats)
    #: (source, tag) leftovers in the rank's inbox at exit
    strays: list = field(default_factory=list)
    #: the rank's flushed span timeline and unattributed blocking time
    spans: list = field(default_factory=list)
    idle_wait: float = 0.0
    progress: dict = field(default_factory=dict)
    #: :meth:`FaultInjector.report` of the rank's injector, if one was armed
    fault_report: "tuple | None" = None

    def wire_bytes(self, rank: int) -> bytes:
        """Pickled for the result pipe; degrades to a stringified error
        rather than dying silently when the value or exception object
        refuses to pickle."""
        try:
            return pickle.dumps(self)
        except Exception:  # noqa: BLE001 - whatever the user object raises
            reason = (
                f"{type(self.error).__name__}: {self.error}"
                if self.error is not None
                else "return value is not picklable (the process backend ships "
                "results over a pipe)"
            )
            return pickle.dumps(replace(
                self, value=None, error=CommError(f"rank {rank}: {reason}"), spans=[],
            ))


@dataclass
class SpmdJob:
    """One launch request, fully resolved (timeouts, injectors)."""

    nranks: int
    fn: Callable[..., Any]
    args: tuple = ()
    kwargs: dict = field(default_factory=dict)
    timeout: float = 60.0
    verify: bool = False
    faults: Any = None
    join_grace: float = 5.0
    #: Trace clock kind (``"wall"`` / ``"ticks"``); empty string = off.
    clock_kind: str = ""


class Transport(abc.ABC):
    """Spawn/join/abort mechanics for one backend (see module docstring)."""

    #: Registry key and the value of ``spmd(backend=...)`` selecting it.
    name: str = ""

    @abc.abstractmethod
    def run(self, job: SpmdJob) -> SpmdResult:
        """Execute the job; return per-rank values or raise the primary
        per-rank error with rank context attached."""


# ---------------------------------------------------------------------------
# the rank shell and the job tail (once, under every backend)
# ---------------------------------------------------------------------------

def run_rank(fabric: BaseFabric, rank: int, job: SpmdJob) -> RankOutcome:
    """One rank's whole life on whatever execution context the transport
    gave it: build the world communicator, attach the tracer, run ``fn``;
    on error record it, abort the fabric and mark the timeline; report."""
    comm = Communicator(fabric, comm_id=0, group=range(fabric.nranks), rank=rank)
    tracer = None
    if job.clock_kind:
        tracer = Tracer(rank, make_trace_clock(job.clock_kind))
        fabric.tracers[rank] = comm.tracer = tracer
    out = RankOutcome(stats=comm.stats)
    try:
        out.value = job.fn(comm, *job.args, **job.kwargs)
    except BaseException as exc:  # noqa: BLE001 - re-raised in the caller
        out.error = exc
        fabric.abort()
        if tracer is not None:
            add_fault_span(tracer, exc)
    if tracer is not None:
        tracer.flush()
        out.spans, out.idle_wait = tracer.spans, tracer.idle_wait
    out.progress = dict(fabric.progress)
    if fabric.faults is not None:
        out.fault_report = fabric.faults.report(rank)
    out.strays = fabric.take_strays(rank)
    out.finished = True
    return out


def finish(
    job: SpmdJob,
    fabric: BaseFabric,
    outcomes: "list[RankOutcome]",
    who: Callable[[int], str],
) -> SpmdResult:
    """Turn the joined ranks' outcomes into the job's result or its primary
    error.  ``who(r)`` names rank r's execution context in the hung-rank
    message (the process transport adds the pid)."""
    progress = dict(fabric.progress)
    for r, oc in enumerate(outcomes):
        for key, value in oc.progress.items():
            progress[key] = max(progress.get(key, value), value)
        if oc.fault_report is not None:
            job.faults.absorb(r, oc.fault_report)
        tracer = fabric.tracers[r]
        if not oc.finished and tracer is not None:
            # a hung thread rank: close its timeline from here
            tracer.flush()
            oc.spans, oc.idle_wait = tracer.spans, tracer.idle_wait
    dist_trace = None
    if job.clock_kind:
        dist_trace = DistTrace(
            job.nranks,
            spans=[list(oc.spans) for oc in outcomes],
            meta={
                "clock": job.clock_kind,
                "idle_wait": [float(oc.idle_wait) for oc in outcomes],
            },
        )
    raise_primary(
        outcomes, progress, dist_trace,
        lambda r: (
            f"{who(r)} failed to terminate; "
            f"last blocked operation: {fabric.describe_blocked(r)}"
        ),
    )
    # leftovers each rank found in its inbox at exit, plus whatever reached
    # its wire afterwards (every rank is joined; nothing else reads it now)
    check_stray_collectives(
        [oc.strays + fabric.take_strays(r) for r, oc in enumerate(outcomes)]
    )
    verify_summary = None
    if fabric.collective_trace is not None:
        # Same-signature collectives that only a strict subset of ranks
        # entered would have deadlocked or left stray messages above, but a
        # root-completes-first pattern can slip through both; the trace
        # holds the authoritative per-rank entry counts.
        unfinished = fabric.collective_trace.incomplete()
        if unfinished:
            raise CollectiveMismatchError(
                "job finished with collectives not entered by every rank: "
                + "; ".join(unfinished[:4])
            )
        verify_summary = {
            "collectives_checked": fabric.collective_trace.checked,
            "rma_ops_checked": fabric.rma_ops_checked(),
        }
    return SpmdResult(
        values=[oc.value for oc in outcomes],
        stats=[oc.stats for oc in outcomes],
        verify_summary=verify_summary,
        trace=dist_trace,
    )


def add_fault_span(tracer: Tracer, error: BaseException) -> None:
    """One explicit zero-length ``fault:<Error>`` span on an errored rank's
    timeline, so faults/restarts are diagnosable from the trace alone."""
    tracer.add_complete(
        f"fault:{type(error).__name__}",
        ts=tracer.now(), dur=0.0, cat="fault",
        error=str(error)[:200],
    )


def raise_primary(
    outcomes: "list[RankOutcome]",
    progress: dict,
    dist_trace: "DistTrace | None",
    hung_message: Callable[[int], str],
) -> None:
    """Select and raise the job's primary error, if any.

    Precedence: first non-:class:`CommAbort` error (the root cause), else
    the first :class:`CommAbort`, else a :class:`TimeoutError` naming the
    first rank that never terminated.  The raised exception carries
    ``spmd_rank``, ``spmd_progress`` and ``spmd_trace`` for recovery
    drivers, chained to the original per-rank exception.
    """
    primary: "tuple[int, BaseException] | None" = None
    for r, oc in enumerate(outcomes):
        if oc.error is not None and not isinstance(oc.error, CommAbort):
            primary = (r, oc.error)
            break
    if primary is None:
        for r, oc in enumerate(outcomes):
            if oc.error is not None:
                primary = (r, oc.error)
                break
        else:
            for r, oc in enumerate(outcomes):
                if not oc.finished:
                    hung = TimeoutError(hung_message(r))
                    hung.spmd_rank = r
                    hung.spmd_progress = dict(progress)
                    hung.spmd_trace = dist_trace
                    raise hung
    if primary is not None:
        rank, err = primary
        wrapped = type(err)(f"[spmd rank {rank}] {err}")
        # Recovery context for resilient drivers: which rank died and how
        # far the job had progressed (phase markers published via
        # ``Fabric.note_progress``).
        wrapped.spmd_rank = rank
        wrapped.spmd_progress = dict(progress)
        wrapped.spmd_trace = dist_trace
        raise wrapped from err


def check_stray_collectives(stray_by_rank: "list[list[tuple[int, int]]]") -> None:
    """A clean job must fully drain its collective traffic.  Leftovers mean
    some ranks entered collectives that others skipped — a silent mismatch
    that happened not to block (e.g. bcast vs reduce at p=2)."""
    for r, stray in enumerate(stray_by_rank):
        if stray:
            raise CollectiveMismatchError(
                f"rank {r} finished with {len(stray)} undrained collective "
                f"message(s) {stray[:4]}: ranks entered mismatched collectives"
            )


# ---------------------------------------------------------------------------
# thread transport (the default)
# ---------------------------------------------------------------------------

class ThreadTransport(Transport):
    """Ranks as daemon threads over the in-process mailbox fabric.

    NumPy kernels release the GIL, the mailbox fabric gives
    message-passing isolation at the API level, and tests can run hundreds
    of small jobs per second.  This is also the only transport supporting
    ``verify=True``: the collective-divergence and RMA-race checkers need
    one shared trace across all ranks.
    """

    name = "thread"

    def run(self, job: SpmdJob) -> SpmdResult:
        nranks = job.nranks
        fabric = Fabric(
            nranks, timeout=job.timeout, verify=job.verify, faults=job.faults
        )
        outcomes = [RankOutcome() for _ in range(nranks)]

        def runner(rank: int) -> None:
            outcomes[rank] = run_rank(fabric, rank, job)

        threads = [
            threading.Thread(target=runner, args=(r,), name=f"spmd-rank-{r}", daemon=True)
            for r in range(nranks)
        ]
        for t in threads:
            t.start()
        for t in threads:
            # Generous join timeout: the fabric's own deadlock detector fires
            # first in any stuck configuration; this is a final backstop.
            t.join(timeout=job.timeout * 4)
            if t.is_alive():
                fabric.abort()
        for t in threads:
            t.join(timeout=job.join_grace)
        return finish(job, fabric, outcomes, lambda r: f"spmd rank {r}")


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------

#: Transport names accepted by ``spmd(backend=...)`` / ``--backend``.
BACKENDS = ("thread", "process")


def get_transport(name: str) -> Transport:
    """Instantiate the transport registered under ``name``."""
    if name == "thread":
        return ThreadTransport()
    if name == "process":
        # local import: the process backend pulls in multiprocessing and
        # shared-memory machinery nothing else needs
        from .procfabric import ProcessTransport

        return ProcessTransport()
    raise ValueError(f"unknown spmd backend {name!r}; choose from {BACKENDS}")
