"""One-sided Remote Memory Access windows.

The paper's path-parallel augmentation (Algorithm 4) updates the distributed
``mate`` vectors with ``MPI_Get`` / ``MPI_Put`` / ``MPI_Fetch_and_op``: each
process walks its own k/p augmenting paths asynchronously, reading and
writing vector elements owned by remote processes without the owner's
participation.  :class:`Window` reproduces those semantics: the window is
created collectively (every rank exposes a NumPy array), after which any rank
may ``get``/``put``/``fetch_and_op`` on any other rank's exposed memory.
No engine opens one: MCM-DIST augments level-parallel in every phase, and
the class stays while the end-to-end harness times its ``fetch_and_op``.

Atomicity: MPI guarantees element-wise atomicity for ``MPI_Fetch_and_op``.
Here a per-target-rank lock provides it (stronger than required, never
weaker).  Plain ``get``/``put`` take the same lock, which
corresponds to running every access inside its own
``MPI_Win_lock``/``unlock`` passive-target epoch — the mode Algorithm 4 needs.

Consistency with the paper's cost model: every ``get``, ``put`` and
``fetch_and_op`` counts as one RMA operation of cost (α + β·words); the
fused fetch-and-op that merges Algorithm 4's lines 5–6 is why its per-step
cost is 3(α + β) rather than 4(α + β).
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Any

import numpy as np

from .comm import Communicator
from .errors import RmaRaceError, TransientCommError, WindowError


@dataclass(frozen=True)
class _Access:
    """One logged one-sided access (verify mode)."""

    origin: int
    op: str
    target: int
    idx: np.ndarray  # sorted unique element indices touched
    write: bool
    atomic: bool
    epoch: int

    def describe(self) -> str:
        lo, hi = (int(self.idx[0]), int(self.idx[-1])) if self.idx.size else (-1, -1)
        span = f"[{lo}]" if lo == hi else f"[{lo}..{hi}] ({self.idx.size} elems)"
        kind = "atomic " if self.atomic else ""
        return (f"rank {self.origin}: {kind}{self.op} on target {self.target}"
                f"{span} in epoch {self.epoch}")


class RmaAccessLog:
    """The dynamic RMA race detector for one window (``verify=True`` mode).

    Shared by all rank-local :class:`Window` objects of the same window id.
    Each access is logged as ``(origin, op, target, indices, write, atomic)``
    tagged with the origin's *epoch* — the count of ``fence`` calls it has
    made on this window.  Because ``fence`` is a barrier, epochs are globally
    aligned, and MPI's passive/active-target rules reduce to: two accesses
    from different origins that overlap on the same target's elements within
    the same epoch are a race unless both are atomic or both are reads.
    Detection happens at access time — the second access of a conflicting
    pair raises :class:`RmaRaceError` naming both — instead of the silent
    lost-update the program would otherwise produce.
    """

    def __init__(self, win_id: int, nranks: int) -> None:
        self.win_id = win_id
        self._lock = threading.Lock()
        self._epoch = [0] * nranks
        self._entries: list[_Access] = []
        self.total = 0

    def advance(self, rank: int) -> None:
        """Called by ``fence``: open the next epoch for ``rank`` and prune
        entries no rank can conflict with anymore."""
        with self._lock:
            self._epoch[rank] += 1
            low = min(self._epoch)
            self._entries = [e for e in self._entries if e.epoch >= low]

    def record(
        self, origin: int, op: str, target: int, index: Any,
        *, write: bool, atomic: bool,
    ) -> None:
        idx = np.unique(np.atleast_1d(np.asarray(index, dtype=np.int64)))
        with self._lock:
            epoch = self._epoch[origin]
            mine = _Access(origin, op, target, idx, write, atomic, epoch)
            for prev in self._entries:
                if prev.target != target or prev.epoch != epoch:
                    continue
                if prev.origin == origin:
                    continue  # same origin: ordered by program order
                if not (prev.write or write):
                    continue  # read-read never conflicts
                if prev.atomic and atomic:
                    continue  # atomic-atomic is element-wise serialized
                overlap = np.intersect1d(prev.idx, idx, assume_unique=True)
                if overlap.size:
                    raise RmaRaceError(
                        f"RMA race on window {self.win_id}: conflicting "
                        f"unsynchronized accesses to target {target} "
                        f"element(s) {overlap[:8].tolist()} — "
                        f"first access: {prev.describe()}; "
                        f"second access: {mine.describe()}. "
                        "Separate them with a fence, or use atomic "
                        "fetch_and_op on both sides."
                    )
            self._entries.append(mine)
            self.total += 1


class Window:
    """A collectively-created one-sided access window.

    Parameters
    ----------
    comm:
        Communicator over which the window is created (collective call).
    local:
        This rank's exposed memory, a 1-D NumPy array.  The window aliases
        it: remote ``put``s become visible to the owner through the original
        array, as with ``MPI_Win_create`` on user memory.
    """

    def __init__(self, comm: Communicator, local: np.ndarray) -> None:
        if not isinstance(local, np.ndarray) or local.ndim != 1:
            raise WindowError("window memory must be a 1-D numpy array")
        self.comm = comm
        self.local = local
        # Rank 0 allocates the id from the fabric (job-unique — under the
        # process fabric the counter lives in shared memory, so forked ranks
        # can never collide) and shares it so all ranks attach to the same
        # fabric-level window.
        win_id = comm.fabric.new_win_id() if comm.rank == 0 else None
        self.win_id = comm.bcast(win_id, root=0)
        # The fabric owns the window storage model: the thread fabric's slot
        # table holds the ranks' arrays themselves, the process fabric backs
        # each slot with a shared-memory segment and hands out lazy-attach
        # views.  Either way ``self._slots[target]`` is target's memory.
        self._slots = comm.fabric.win_create(
            self.win_id, comm.rank, comm.size, local, comm.group
        )
        # verify mode: attach the shared race-detection log for this window
        self._tracker: RmaAccessLog | None = None
        if comm.fabric.verify:
            wid, size = self.win_id, comm.size
            self._tracker = comm.fabric.rma_log_for(
                wid, lambda: RmaAccessLog(wid, size)
            )
        self._locks = comm.fabric.win_locks(self.win_id, comm.size)
        comm.barrier()  # window is usable only after all ranks attached
        self.rma_ops = 0
        self.rma_words = 0
        self.rma_retries = 0
        self._epoch_open = True  # passive-target: always accessible
        #: between a ``fence(nosucceed=True)`` and the next fence the owner's
        #: ``local`` array, not the fabric's copy, holds the window contents
        self._owner_truth = False
        # span tracing: epochs of different windows may interleave, so epoch
        # spans cannot live on the tracer's nesting main stack — each window
        # gets its own ``rma:w<id>`` lane of complete spans, one per epoch,
        # carrying the op/word deltas accumulated since the previous fence.
        self._tracer = comm.tracer
        self._epoch_no = 0
        if self._tracer is not None:
            # rank-local creation-order label, NOT self.win_id: the real id
            # is process-global, which would break tick-trace determinism
            self._trace_win = self._tracer.next_win_id()
            self._ep_t0 = self._tracer.now()
            self._ep_ops = 0
            self._ep_words = 0

    def _trace_epoch(self, close: str) -> None:
        """Record the epoch ending now (at a fence or the final free) as a
        complete span on this window's lane; open the next epoch."""
        tr = self._tracer
        if tr is None:
            return
        now = tr.now()
        tr.add_complete(
            "rma_epoch",
            ts=self._ep_t0,
            dur=now - self._ep_t0,
            cat="rma",
            track=f"rma:w{self._trace_win}",
            win=self._trace_win,
            epoch=self._epoch_no,
            close=close,
            ops=self.rma_ops - self._ep_ops,
            words=self.rma_words - self._ep_words,
        )
        self._epoch_no += 1
        self._ep_t0 = now
        self._ep_ops = self.rma_ops
        self._ep_words = self.rma_words

    # -- access epoch management ---------------------------------------------

    def fence(self, *, nosucceed: bool = False) -> None:
        """Collective synchronization separating access epochs
        (``MPI_Win_fence``).  The barrier orders all pre-fence accesses
        before all post-fence ones; ``win_sync`` then refreshes the owner's
        ``local`` array (a no-op on the thread fabric where the window
        aliases it, a shared-memory copy-back on the process fabric).  After
        a fence the owner may read ``self.local``.

        ``nosucceed=True`` (``MPI_MODE_NOSUCCEED``) promises that no rank
        issues a one-sided call until the next fence.  Outside an access
        epoch the owner may *store* into ``self.local`` directly: its memory
        is the truth, so the next fence publishes it to the fabric *before*
        its barrier instead of copying back after it (``win_publish``, again
        a no-op when the window aliases ``local``), and a ``free`` skips the
        copy-back.
        """
        if not self._epoch_open:
            raise WindowError(
                f"fence on window {self.win_id} after Window.free(): epoch "
                "operations on a freed window are erroneous (MPI_Win_fence "
                "on a freed window)"
            )
        if self._tracker is not None:
            self._tracker.advance(self.comm.rank)
        self._trace_epoch("fence")
        fabric, rank = self.comm.fabric, self.comm.rank
        if self._owner_truth:
            fabric.win_publish(self.win_id, rank)
        self.comm.barrier()
        if not self._owner_truth:
            fabric.win_sync(self.win_id, rank)
        self._owner_truth = nosucceed

    def free(self) -> None:
        """Collectively release the window (``MPI_Win_free``).

        Two-barrier sequence: after the first barrier no rank issues new
        accesses, so every rank detaches (the process fabric copies the
        final window contents back into the owner's ``local`` here, unless
        the last fence was ``nosucceed``); after the second barrier no rank
        holds an attachment, so the backing storage is destroyed.
        """
        if not self._epoch_open:
            raise WindowError(
                f"double free of window {self.win_id}: Window.free() was "
                "already called"
            )
        self._trace_epoch("free")
        self.comm.barrier()
        self._epoch_open = False
        if not self._owner_truth:
            self.comm.fabric.win_sync(self.win_id, self.comm.rank)
        self.comm.fabric.win_detach(self.win_id, self.comm.rank)
        self.comm.barrier()
        self.comm.fabric.win_destroy(self.win_id, self.comm.rank)

    # -- one-sided operations --------------------------------------------------

    def _target_array(self, target: int) -> np.ndarray:
        if not self._epoch_open:
            raise WindowError("access after Window.free()")
        if not 0 <= target < self.comm.size:
            raise WindowError(f"target rank {target} out of range [0, {self.comm.size})")
        arr = self._slots[target]
        if arr is None:
            raise WindowError(f"target rank {target} never attached its memory")
        return arr

    def _check_index(self, arr: np.ndarray, index: Any, span: int = 1) -> None:
        idx = np.asarray(index)
        if idx.size and (int(idx.min()) < 0 or int(idx.max()) + span - 1 >= arr.size):
            raise WindowError(
                f"window access out of range: indices in [{idx.min()}, {idx.max()}]"
                f" with span {span}, window size {arr.size}"
            )

    def _charge(self, index: Any) -> None:
        self.rma_ops += 1
        self.rma_words += int(np.asarray(index).size)

    def _track(self, op: str, target: int, index: Any, *, write: bool, atomic: bool) -> None:
        if self._tracker is not None:
            self._tracker.record(
                self.comm.rank, op, target, index, write=write, atomic=atomic
            )

    def _fault_point(self, op: str) -> None:
        """Injected-fault site for one one-sided op: scheduled crashes
        propagate, transient failures are retried with capped backoff
        (retries land on ``rma_retries`` and ``comm.stats``, the backoff is
        traced through :meth:`Communicator._fault_sleep`)."""
        faults = self.comm.fabric.faults
        if faults is None:
            return
        policy = faults.retry
        attempt = 0
        while True:
            try:
                faults.on_rma(self.comm.global_rank)
                break
            except TransientCommError:
                attempt += 1
                self.rma_retries += 1
                self.comm.stats.record_retry(f"rma_{op}")
                if attempt > policy.max_retries:
                    raise TransientCommError(
                        f"rank {self.comm.global_rank}: RMA {op} on window "
                        f"{self.win_id} still failing after "
                        f"{policy.max_retries} retries"
                    ) from None
                self.comm._fault_sleep(policy.delay(attempt), "retry-backoff")

    def get(self, target: int, index: Any) -> Any:
        """Read element(s) at ``index`` from ``target``'s window memory.

        ``index`` may be a scalar or an integer array (vectorized get);
        returns a scalar or array copy accordingly.
        """
        arr = self._target_array(target)
        self._check_index(arr, index)
        self._charge(index)
        self._fault_point("get")
        self._track("get", target, index, write=False, atomic=False)
        with self._locks[target]:
            out = arr[index]
        return out.copy() if isinstance(out, np.ndarray) else out

    def put(self, target: int, index: Any, value: Any) -> None:
        """Write ``value`` at ``index`` into ``target``'s window memory."""
        arr = self._target_array(target)
        self._check_index(arr, index)
        self._charge(index)
        self._fault_point("put")
        self._track("put", target, index, write=True, atomic=False)
        with self._locks[target]:
            arr[index] = value

    def fetch_and_op(self, target: int, index: int, value: Any, op=None) -> Any:
        """Atomically read the old value and combine in the new one
        (``MPI_Fetch_and_op``).

        ``op=None`` means REPLACE (the variant Algorithm 4 uses to read the
        old mate while installing the new one).  Otherwise ``op(old, value)``
        is stored.
        """
        arr = self._target_array(target)
        self._check_index(arr, int(index))
        self._charge(index)
        self._fault_point("fetch_and_op")
        self._track("fetch_and_op", target, index, write=True, atomic=True)
        with self._locks[target]:
            old = arr[index]
            old = old.copy() if isinstance(old, np.ndarray) else old
            arr[index] = value if op is None else op(old, value)
        return old
