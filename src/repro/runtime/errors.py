"""Error types raised by the simulated message-passing runtime."""


class CommError(Exception):
    """Base class for all runtime communication errors."""


class DeadlockError(CommError):
    """A blocking operation timed out.

    In a correct bulk-synchronous program every ``recv`` is eventually matched
    by a ``send`` and every collective is entered by all ranks of the
    communicator.  The simulated runtime cannot prove a deadlock, but a
    blocking call that makes no progress for ``Fabric.timeout`` seconds is
    reported as one, with enough context (rank, operation, peer, tag) to
    debug the SPMD program.
    """


class CollectiveMismatchError(CommError):
    """Ranks of one communicator entered different collectives.

    Each collective call carries an operation name and a sequence number;
    if rank 3 calls ``allgatherv`` while rank 0 is in ``alltoallv`` on the
    same communicator, the mismatch is detected at message-match time instead
    of silently exchanging garbage.
    """


class WindowError(CommError):
    """Illegal one-sided access: out-of-range target, bad dtype, or access
    outside an epoch."""


class RmaRaceError(WindowError):
    """Two conflicting one-sided accesses with no synchronization between.

    Raised by the RMA race detector (``spmd(..., verify=True)``) when two
    ranks touch overlapping window elements inside the same access epoch,
    at least one is a write, and the pair is not atomic-atomic — the MPI
    conditions under which the result is undefined.  The message names both
    conflicting accesses (rank, operation, target, indices).
    """


class FaultPlanError(CommError, ValueError):
    """A fault-plan string failed to parse.

    Raised by :meth:`~repro.runtime.faults.FaultPlan.parse` (and the
    scenario compiler built on it) with the offending clause or token
    named, so a typo in ``--chaos-plan`` / ``--scenario`` surfaces as a
    precise message instead of a generic ``ValueError`` or a silently
    ignored clause.  Subclasses ``ValueError`` so pre-existing callers
    catching that still work.
    """


class TransientCommError(CommError):
    """A send or one-sided op failed transiently (injected lossy link).

    Raised by the fault injector inside ``Communicator``/``Window``
    operations; the runtime retries the attempt with capped exponential
    backoff (see :class:`~repro.runtime.faults.RetryPolicy`) and only
    re-raises once the retry budget is exhausted — at which point the
    failure is treated as permanent by the caller.
    """


class RankKilledError(CommError):
    """A rank was killed by the fault plan (simulated process death).

    Unlike :class:`TransientCommError` this is never retried: the rank's
    SPMD function unwinds, the executor aborts the fabric, and survivors
    exit with :class:`CommAbort`.  Recovery, if any, happens above the
    runtime: a driver that was allowed restarts relaunches the job from its
    latest checkpoint (``repro.matching.job.launch``, reached through
    ``run_mcm_dist(..., max_restarts=N)`` / ``run_mwm_dist``).
    """


class CommAbort(CommError):
    """Raised inside surviving ranks after another rank died.

    When any rank's SPMD function raises, the executor flips the fabric's
    abort flag; ranks blocked in communication calls observe the flag and
    unwind with this exception so the whole job terminates promptly instead
    of deadlocking on the dead peer.
    """
