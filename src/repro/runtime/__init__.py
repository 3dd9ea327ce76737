"""Simulated message-passing runtime (an in-process "MPI").

The paper's algorithms communicate through MPI collectives along grid rows
and columns (broadcast, gather, scatter, allgather, personalized all-to-all,
reductions) and, for the path-parallel augmentation, one-sided Remote Memory
Access (RMA) windows with ``get``/``put``/``fetch_and_op``.  That is the
whole vocabulary here: the runtime offers no point-to-point calls, because
no engine makes one.  On the reproduction platform there is no MPI and no
multi-node machine, so this package provides those semantics *exactly*:
every simulated rank is an OS thread (or, with ``backend="process"``, a
forked process) running the user's SPMD function, connected to its peers
through a fabric of mailboxes (or shared-memory rings).  Data really moves
between per-rank buffers; nothing is shared behind the API's back, which is
what makes the distributed algorithms built on top of it (``repro.distmat``)
honest distributed-memory code.

Entry points
------------

``spmd(nranks, fn, *args)``
    Run ``fn(comm, *args)`` on ``nranks`` simulated ranks and return the list
    of per-rank return values.

``Communicator``
    The MPI-like handle passed to each rank.

``Window``
    One-sided RMA window collectively created over a communicator.
"""

from .errors import (
    CommAbort,
    CommError,
    CollectiveMismatchError,
    DeadlockError,
    FaultPlanError,
    RankKilledError,
    RmaRaceError,
    TransientCommError,
    WindowError,
)
from .fabric import CollectiveTrace, Fabric
from .comm import SUM, Communicator, CommStats, ReduceOp
from .pack import pack_arrays, unpack_arrays
from .rma import RmaAccessLog, Window
from .trace import DistTrace, Span, TraceError, Tracer, make_trace_clock, tspan
from .faults import CRASH_GROUPS, CrashSpec, FaultInjector, FaultPlan, RetryPolicy
from .checkpoint import Checkpoint, CheckpointStore, FileCheckpointStore
from .executor import RECOVERABLE_ERRORS, resolve_backend, resolve_timeout, spmd
from .transport import BACKENDS, SpmdJob, SpmdResult, Transport, get_transport

__all__ = [
    "BACKENDS",
    "CRASH_GROUPS",
    "Checkpoint",
    "CheckpointStore",
    "CollectiveMismatchError",
    "CollectiveTrace",
    "CommAbort",
    "CommError",
    "CommStats",
    "Communicator",
    "CrashSpec",
    "DeadlockError",
    "DistTrace",
    "Fabric",
    "FaultInjector",
    "FaultPlan",
    "FaultPlanError",
    "FileCheckpointStore",
    "RECOVERABLE_ERRORS",
    "RankKilledError",
    "ReduceOp",
    "RetryPolicy",
    "RmaAccessLog",
    "RmaRaceError",
    "SUM",
    "Span",
    "SpmdJob",
    "SpmdResult",
    "TraceError",
    "Tracer",
    "TransientCommError",
    "Transport",
    "Window",
    "WindowError",
    "get_transport",
    "make_trace_clock",
    "pack_arrays",
    "resolve_backend",
    "resolve_timeout",
    "spmd",
    "tspan",
    "unpack_arrays",
]
