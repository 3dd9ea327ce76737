"""SPMD job launcher for the simulated runtime.

``spmd(nranks, fn, *args)`` plays the role of ``mpiexec -n nranks``: it
resolves a :class:`~repro.runtime.transport.Transport` (threads-as-ranks by
default, forked processes over shared-memory rings with
``backend="process"``), runs ``fn(comm, *args)`` on each rank, and collects
per-rank return values.  If any rank raises, the fabric is aborted so peers
blocked in communication unwind promptly, and the first failure is re-raised
in the caller with its originating rank attached.

Threads as the default are deliberate: NumPy kernels release the GIL, the
mailbox fabric gives message-passing isolation at the API level, and tests
can run hundreds of small jobs per second.  Nothing in ``repro.distmat`` or
``repro.matching.mcm_dist`` touches state outside its rank's own arrays plus
the explicit ``Communicator``/``Window`` calls, so the same code runs
unchanged when ranks become OS processes — the cross-backend parity suite
holds the two transports to bit-identical results.
"""

from __future__ import annotations

import os
from typing import Any, Callable

from .checkpoint import Checkpoint, CheckpointStore  # noqa: F401  (re-export)
from .errors import (
    CommAbort,
    DeadlockError,
    RankKilledError,
    TransientCommError,
)
from .faults import FaultInjector, FaultPlan
from .trace import DistTrace
from .transport import (  # noqa: F401  (SpmdResult re-exported for back-compat)
    BACKENDS,
    SpmdJob,
    SpmdResult,
    get_transport,
)

#: Environment override for the deadlock/timeout window of every blocking
#: runtime call (seconds); explicit ``timeout=`` arguments win over it.
TIMEOUT_ENV = "REPRO_SPMD_TIMEOUT"

#: Environment override for the default transport (``thread`` / ``process``);
#: explicit ``backend=`` arguments win over it.
BACKEND_ENV = "REPRO_SPMD_BACKEND"


def resolve_timeout(explicit: "float | None", default: float = 60.0) -> float:
    """Timeout precedence: explicit argument > $REPRO_SPMD_TIMEOUT > default."""
    if explicit is not None:
        return float(explicit)
    env = os.environ.get(TIMEOUT_ENV)
    if env:
        return float(env)
    return default


def resolve_backend(explicit: "str | None", verify: bool = False) -> str:
    """Backend precedence: explicit argument > $REPRO_SPMD_BACKEND > thread.

    ``verify=True`` needs the shared collective trace and RMA access logs
    only the in-process fabric keeps, so it is thread-only: an explicit
    ``backend="process"`` request is an error, while an environment-supplied
    process default (e.g. a CI matrix leg) silently falls back to threads so
    verification tests still exercise what they were written to check.
    """
    if explicit is not None:
        name = explicit
        if name not in BACKENDS:
            raise ValueError(f"unknown spmd backend {name!r}; choose from {BACKENDS}")
        if verify and name == "process":
            raise ValueError(
                "verify=True requires the thread backend (the collective and "
                "RMA verifiers need one shared trace across ranks)"
            )
        return name
    name = os.environ.get(BACKEND_ENV, "").strip() or "thread"
    if name not in BACKENDS:
        raise ValueError(
            f"${BACKEND_ENV}={name!r} is not a valid backend; choose from {BACKENDS}"
        )
    if verify and name == "process":
        return "thread"
    return name


def spmd(
    nranks: int,
    fn: Callable[..., Any],
    *args: Any,
    timeout: "float | None" = None,
    verify: bool = False,
    faults: "FaultInjector | FaultPlan | str | None" = None,
    join_grace: float = 5.0,
    trace: "bool | str" = False,
    backend: "str | None" = None,
    **kwargs: Any,
) -> SpmdResult:
    """Run ``fn(comm, *args, **kwargs)`` on ``nranks`` simulated ranks.

    Parameters
    ----------
    nranks:
        Number of simulated MPI ranks.
    fn:
        The SPMD program.  Its first argument is this rank's
        :class:`~repro.runtime.comm.Communicator`.
    timeout:
        Deadlock-detection window in seconds for blocking calls.  ``None``
        (the default) resolves through ``$REPRO_SPMD_TIMEOUT`` and falls
        back to 60 seconds.
    faults:
        Optional chaos: a :class:`~repro.runtime.faults.FaultInjector`
        (or a :class:`~repro.runtime.faults.FaultPlan`, instantiated here)
        injecting seeded rank crashes, transient send/RMA failures and
        legal message reorderings.  ``None`` keeps every hook a single
        attribute check.
    trace:
        Span tracing.  ``False`` (the default) keeps every hook a single
        attribute check and adds nothing to the result; ``True`` or
        ``"wall"`` records per-rank span timelines with wall-clock
        timestamps; ``"ticks"`` uses a deterministic per-rank tick clock
        (byte-identical traces across runs of the same program).  The
        merged :class:`~repro.runtime.trace.DistTrace` lands on
        ``result.trace`` — or on the raised exception's ``spmd_trace``
        attribute when the job fails, with crashed ranks' open spans
        flushed (marked ``truncated``) and one ``fault:<Error>`` span per
        errored rank.
    backend:
        Which transport runs the ranks: ``"thread"`` (default — daemon
        threads over the in-process mailbox fabric) or ``"process"``
        (forked OS processes exchanging packed messages through
        ``multiprocessing.shared_memory`` ring buffers; true rank
        parallelism).  ``None`` resolves through ``$REPRO_SPMD_BACKEND``.
        Both backends produce bit-identical results; ``fn``, its arguments
        and its return values must be picklable under the process backend.
    join_grace:
        Final join window (seconds) before a non-terminating rank is
        reported via :class:`TimeoutError`; tests shrink it.
    verify:
        Arm the dynamic correctness verifiers: every collective entry is
        cross-checked against its peers' signatures (op, root, reduction
        operator, payload dtype/shape) raising
        :class:`CollectiveMismatchError` with a precise diff on divergence,
        and every one-sided window access is race-checked, raising
        :class:`~repro.runtime.errors.RmaRaceError` naming both conflicting
        accesses.  Costs one dict lookup per collective and one log scan per
        RMA op; off by default.  Thread-backend only (see
        :func:`resolve_backend`).

    Returns
    -------
    SpmdResult
        ``result[r]`` is rank r's return value; ``result.stats[r]`` its
        communication counters.

    Raises
    ------
    The first per-rank exception, re-raised with rank context via
    exception chaining.  Secondary :class:`CommAbort` errors in other
    ranks (caused by the abort) are suppressed.
    """
    timeout = resolve_timeout(timeout)
    if isinstance(faults, str):
        faults = FaultPlan.parse(faults)
    if isinstance(faults, FaultPlan):
        faults = FaultInjector(faults, nranks)
    clock_kind = ""
    if trace:
        clock_kind = "wall" if trace is True else str(trace)
    transport = get_transport(resolve_backend(backend, verify=verify))
    job = SpmdJob(
        nranks=nranks,
        fn=fn,
        args=args,
        kwargs=kwargs,
        timeout=timeout,
        verify=verify,
        faults=faults,
        join_grace=join_grace,
        clock_kind=clock_kind,
    )
    return transport.run(job)


#: Failure classes a resilient driver restarts from: simulated process
#: death, the abort it causes in survivors, hangs, and permanently-failed
#: (retry-exhausted) transient links.  Anything else — assertion errors,
#: ValueError, verifier findings — is a program bug and propagates.
RECOVERABLE_ERRORS = (
    RankKilledError,
    CommAbort,
    DeadlockError,
    TimeoutError,
    TransientCommError,
)


def _run_resilient(
    rank_main: Callable[..., Any],
    job_args: tuple,
    pr: int,
    pc: int,
    *,
    faults: "FaultPlan | None" = None,
    checkpoint_every: int = 1,
    checkpoint_store: "CheckpointStore | None" = None,
    max_restarts: int = 3,
    timeout: "float | None" = None,
    verify: bool = False,
    trace: "bool | str" = False,
    backend: "str | None" = None,
    restart_on: tuple = RECOVERABLE_ERRORS,
    **alg_kwargs: Any,
):
    """The algorithm-agnostic shrink-and-restart driver.

    ``rank_main(comm, *job_args, pr, pc, **alg_kwargs)`` must accept
    ``checkpoint_every`` / ``checkpoint_store`` / ``resume`` kwargs and
    snapshot at phase boundaries; everything else — fault-plan arming and
    disarming, fabric rebuilds, resume-point lookup, restart-span and
    replay accounting, trace concatenation, stats merging — is shared
    between the cardinality (:func:`run_mcm_dist_resilient`) and weighted
    (:func:`run_mwm_dist_resilient`) engines.
    """
    resolved_backend = resolve_backend(backend, verify=verify)
    store = checkpoint_store if checkpoint_store is not None else CheckpointStore()
    if resolved_backend == "process" and not hasattr(store, "refresh_counters"):
        if backend is None:
            # backend came from $REPRO_SPMD_BACKEND, not the caller: fall
            # back to thread (mirrors the verify fallback) rather than
            # fail a job that never asked for processes
            resolved_backend = "thread"
        else:
            raise ValueError(
                "backend='process' requires a FileCheckpointStore: forked "
                "ranks cannot write checkpoints into the parent's "
                "in-memory store"
            )
    disarmed: set = set()
    restarts = 0
    phases_replayed = 0
    #: (resume_phase, death_phase) per failed attempt.  Both are
    #: deterministic — the checkpoint write is collective and completes
    #: before the next boundary's crash point, and the first victim notes
    #: its boundary before dying — so the scenario driver can price the
    #: failed attempt's lost work from a crash-free run's phase ledger
    #: without touching the crashed attempt's scheduler-racy counters.
    restart_spans: list = []
    job_trace: "DistTrace | None" = None

    def merge_attempt(attempt_trace: "DistTrace | None") -> None:
        nonlocal job_trace
        if attempt_trace is None:
            return
        if job_trace is None:
            job_trace = attempt_trace
        else:
            job_trace = job_trace.concat(attempt_trace, "restart", attempt=restarts)

    while True:
        injector = (
            FaultInjector(faults, pr * pc, disarmed=disarmed, grid=(pr, pc))
            if faults is not None
            else None
        )
        refresh = getattr(store, "refresh_counters", None)
        if refresh is not None:
            # multi-process writers bump the shared sidecar, not this object
            refresh()
        resume = store.latest()
        resume_phase = resume.phase if resume is not None else 0

        try:
            result = spmd(
                pr * pc, rank_main, *job_args, pr, pc,
                timeout=timeout, verify=verify, faults=injector,
                trace=trace, backend=resolved_backend,
                checkpoint_every=checkpoint_every,
                checkpoint_store=store,
                resume=resume,
                **alg_kwargs,
            )
            merge_attempt(result.trace)
            break
        except restart_on as exc:
            merge_attempt(getattr(exc, "spmd_trace", None))
            if injector is not None:
                disarmed |= injector.fired_tokens()
            restarts += 1
            if restarts > max_restarts:
                raise
            reached = getattr(exc, "spmd_progress", {}).get("phase", 0)
            restart_spans.append((resume_phase, reached))
            refresh = getattr(store, "refresh_counters", None)
            if refresh is not None:
                refresh()
            latest = store.latest()
            restart_from = latest.phase if latest is not None else 0
            # phases the failed attempt had completed (it entered phase
            # ``reached`` but died inside it) past the checkpoint the next
            # attempt resumes from must run again
            phases_replayed += max(0, reached - 1 - restart_from)

    from ..matching.mcm_dist import merge_by_alg, merge_physical

    refresh = getattr(store, "refresh_counters", None)
    if refresh is not None:
        refresh()
    mate_r, mate_c, stats = result[0]
    stats.comm_by_alg = merge_by_alg(result.values)
    merge_physical(stats, result.values)
    stats.verify_summary = result.verify_summary
    stats.restarts = restarts
    stats.phases_replayed = phases_replayed
    stats.checkpoint_words = store.words_written
    # model-time service of the SUCCESSFUL attempt only: slowest rank's
    # ledger (bulk-synchronous completion rule).  Failed attempts' lost work
    # is NOT folded in here — their counters are scheduler-racy — it is
    # reconstructed by the scenario driver from ``restart_spans`` against a
    # crash-free twin's ``model_phase_ledger``.
    stats.model_seconds = (
        max(injector.model_seconds) if injector is not None else 0.0
    )
    stats.model_phase_ledger = (
        {p: injector.phase_ledger[p] for p in sorted(injector.phase_ledger)}
        if injector is not None
        else None
    )
    stats.restart_spans = tuple(restart_spans)
    stats.trace = job_trace
    return mate_r, mate_c, stats


def run_mcm_dist_resilient(coo, pr: int, pc: int, **kwargs: Any):
    """Self-healing MCM-DIST: shrink-and-restart recovery from checkpoints.

    Runs the same job as ``run_mcm_dist(coo, pr, pc, ...)`` but survives
    rank deaths (injected by ``faults`` or otherwise): at every
    ``checkpoint_every``-th phase boundary the job snapshots
    ``(mate_row, mate_col, phase, rng_state)`` into ``checkpoint_store``
    (in-memory by default; pass a
    :class:`~repro.runtime.checkpoint.FileCheckpointStore` to survive the
    process).  When the SPMD job fails with a recoverable error the fabric
    is rebuilt from scratch — ULFM-style shrink-and-restart with a fresh
    set of simulated processes — and the job resumes from the latest
    checkpoint.  Because each completed phase leaves a valid matching,
    the restarted run converges to the same maximum cardinality.

    Crash events of the fault plan that already fired are disarmed on
    restart (a process only dies once); transient/delay faults re-arm.

    Under ``backend="process"`` the checkpoint store must be a
    :class:`~repro.runtime.checkpoint.FileCheckpointStore` — an in-memory
    store in the parent is invisible to forked ranks, so a restart would
    silently begin from phase 0.

    Returns ``(mate_r, mate_c, stats)`` with ``stats.restarts``,
    ``stats.phases_replayed`` and ``stats.checkpoint_words`` recorded.

    With ``trace`` set (see :func:`spmd`), every attempt's timeline —
    including the failed ones, fault spans and truncated spans intact —
    is concatenated into one :class:`~repro.runtime.trace.DistTrace` with
    an explicit ``restart`` span at each seam, attached as ``stats.trace``.
    """
    from ..matching.mcm_dist import _mcm_rank_main  # local: avoid import cycle

    return _run_resilient(_mcm_rank_main, (coo,), pr, pc, **kwargs)


def run_mwm_dist_resilient(coo, weights, pr: int, pc: int, **kwargs: Any):
    """Self-healing MWM-DIST: the weighted-auction twin of
    :func:`run_mcm_dist_resilient`.

    Same restart protocol, but the snapshots carry the doubled-graph mate
    vectors AND the item prices (the checkpoint ``aux`` slot): a resumed
    ε-phase re-fights its own bidding wars from scratch, but inherits the
    prices the completed phases established, so the recovered run lands on
    the same matching (and bit-identical mates) as a fault-free one.
    Accepts the :func:`~repro.matching.mwm_dist.run_mwm_dist` algorithm
    kwargs (``epsilon``, ``cardinality_bias``, ``max_rounds``) on top of
    the recovery kwargs.
    """
    from ..matching.mwm_dist import _mwm_rank_main  # local: avoid import cycle

    return _run_resilient(_mwm_rank_main, (coo, weights), pr, pc, **kwargs)
