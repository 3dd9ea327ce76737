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
can run hundreds of small jobs per second.  Nothing in the layers above
touches state outside its rank's own arrays plus the explicit
``Communicator``/``Window`` calls, so the same code runs unchanged when
ranks become OS processes — the cross-backend parity suite holds the two
transports to bit-identical results.

This module launches ONE attempt of one program and knows nothing about
what runs on it; restarting a failed job from its checkpoints is the
matching engines' job shell (``repro.matching.job.launch``), which only
reads :data:`RECOVERABLE_ERRORS` from here.
"""

from __future__ import annotations

import os
from typing import Any, Callable

from .errors import (
    CommAbort,
    DeadlockError,
    RankKilledError,
    TransientCommError,
)
from .faults import FaultInjector, FaultPlan
from .transport import BACKENDS, SpmdJob, SpmdResult, get_transport

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


#: Failure classes a recovery driver (``repro.matching.job.launch``)
#: restarts from: simulated process death, the abort it causes in
#: survivors, hangs, and permanently-failed (retry-exhausted) transient
#: links.  Anything else — assertion errors, ValueError, verifier findings
#: — is a program bug and propagates.
RECOVERABLE_ERRORS = (
    RankKilledError,
    CommAbort,
    DeadlockError,
    TimeoutError,
    TransientCommError,
)
