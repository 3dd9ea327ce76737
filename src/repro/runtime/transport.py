"""The transport interface: how one SPMD job's ranks run.

A *transport* owns the mechanics the executor used to hard-code: spawning
one execution context per rank, wiring each to a fabric that implements
point-to-point delivery, id allocation and abort propagation, joining
the ranks (with the hung-rank backstop), and assembling the
:class:`SpmdResult`.  The layers above — communicators, collectives
(``split`` included: it is a message exchange written once in
:mod:`~repro.runtime.comm`), windows, the matching engines — never see
which transport they run on, and a transport never sees what runs on it:
restarting a failed job is the caller's business
(``repro.matching.job.launch``).

Two implementations ship:

* :class:`ThreadTransport` (``backend="thread"``, the default) — ranks are
  daemon threads over the in-process :class:`~repro.runtime.fabric.Fabric`
  mailboxes.  This is bit-compatible with the pre-transport executor: same
  fabric, same error wrapping, same verify/trace plumbing.
* ``ProcessTransport`` (``backend="process"``, in
  :mod:`repro.runtime.procfabric`) — ranks are forked OS processes
  exchanging messages through ``multiprocessing.shared_memory`` ring
  buffers, so rank parallelism is real and engine wins show up in
  wall-clock, not just counters.

The contract every transport must honor (the cross-backend parity suite
asserts the observable parts):

1. run ``fn(comm, *args, **kwargs)`` once per rank with a base
   communicator of ``comm_id=0`` covering ranks ``0..nranks-1``;
2. on any rank's failure, propagate abort so peers unwind with
   :class:`~repro.runtime.errors.CommAbort`, then re-raise the primary
   error wrapped as ``type(err)(f"[spmd rank {r}] ...")`` with
   ``spmd_rank`` / ``spmd_progress`` / ``spmd_trace`` attached
   (:func:`raise_primary`) — what a recovery driver reads to decide
   whether, and from which phase, to relaunch;
3. name a rank that never terminates via :class:`TimeoutError` carrying
   the rank's last blocked operation, and leave no execution contexts
   behind — threads are daemonic, processes are reaped;
4. after a clean job, fail loudly on undrained collective traffic
   (:func:`check_stray_collectives`).
"""

from __future__ import annotations

import abc
import threading
from dataclasses import dataclass, field
from typing import Any, Callable

from .comm import Communicator, CommStats
from .errors import CollectiveMismatchError, CommAbort
from .fabric import Fabric
from .trace import DistTrace, Tracer, make_trace_clock, merge_tracers


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
    """What one rank's execution context reported back."""

    value: Any = None
    error: BaseException | None = None
    finished: bool = False


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
# shared post-processing (identical across backends by construction)
# ---------------------------------------------------------------------------

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
# thread transport (the default; bit-compatible with the original executor)
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
        comms = [
            Communicator(fabric, comm_id=0, group=range(nranks), rank=r)
            for r in range(nranks)
        ]
        tracers = None
        if job.clock_kind:
            tracers = [Tracer(r, make_trace_clock(job.clock_kind)) for r in range(nranks)]
            fabric.tracers = tracers
            for r in range(nranks):
                comms[r].tracer = tracers[r]
        outcomes = [RankOutcome() for _ in range(nranks)]
        fn, args, kwargs = job.fn, job.args, job.kwargs

        def runner(rank: int) -> None:
            try:
                outcomes[rank].value = fn(comms[rank], *args, **kwargs)
            except BaseException as exc:  # noqa: BLE001 - must capture to re-raise in caller
                outcomes[rank].error = exc
                fabric.abort()
            finally:
                outcomes[rank].finished = True

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

        dist_trace = None
        if tracers is not None:
            for r, oc in enumerate(outcomes):
                if oc.error is not None:
                    add_fault_span(tracers[r], oc.error)
            dist_trace = merge_tracers(tracers, job.clock_kind)

        raise_primary(
            outcomes, fabric.progress, dist_trace,
            lambda r: (
                f"spmd rank {r} failed to terminate; "
                f"last blocked operation: {fabric.describe_blocked(r)}"
            ),
        )
        check_stray_collectives(
            [mb.pending_collective() for mb in fabric.mailboxes]
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
            stats=[c.stats for c in comms],
            verify_summary=verify_summary,
            trace=dist_trace,
        )


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
