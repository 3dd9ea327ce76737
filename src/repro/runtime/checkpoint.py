"""Phase-granular checkpoint stores for restartable SPMD jobs.

MS-BFS maximum matching augments by a set of vertex-disjoint paths per
phase, so the mate vectors after *any* completed phase form a valid
matching: by Berge's theorem a restarted run converges to the same maximum
cardinality from that state.  That makes phase-boundary checkpointing
algorithmically free — the only cost is shipping the two mate vectors.

A :class:`CheckpointStore` outlives the SPMD job that writes to it: the
driver (``repro.matching.job.launch``) is handed one — or creates one when
it is allowed restarts; a run with neither has no store and writes no
checkpoint — every incarnation of the job saves into it at phase
boundaries, and after a failure the next incarnation resumes from
:meth:`latest`.  Two variants are provided:
in-memory (reachable by thread ranks only — survives fabric rebuilds
within one driver call) and on-disk ``.npz`` files (reachable by forked
ranks too, survives the whole process, one file per phase, crash-safe via
write-to-temp-then-rename).
"""

from __future__ import annotations

import contextlib
import fcntl
import json
import os
import threading
from dataclasses import dataclass, field

import numpy as np

from .pack import wire_dtype


def _narrowed(a: np.ndarray) -> np.ndarray:
    """A copy of ``a`` as a store holds it: an ``int64`` array at its
    :func:`~repro.runtime.pack.wire_dtype`, as the wire carries it."""
    return a.astype(wire_dtype(a))


def _widened(a: np.ndarray) -> np.ndarray:
    """A held array as :meth:`CheckpointStore.latest` hands it back: an
    integer array widened to the ``int64`` it was saved as."""
    return a.astype(np.int64) if a.dtype.kind in "iu" else a


@dataclass(frozen=True)
class Checkpoint:
    """One phase-boundary snapshot of the matching state.

    ``aux`` carries algorithm-specific dense state beyond the mate vectors
    — the weighted auction engine checkpoints its item prices here (the
    mates alone are NOT a valid auction restart point: a phase resumed
    with zeroed prices would re-fight every bidding war and lose the
    ε-scaling warm start the earlier phases paid for).  Values must be
    NumPy arrays; None means "no extra state".  A store holds each
    ``int64`` array at the width the wire carries it in and hands every
    integer array back as ``int64``.
    """

    phase: int
    mate_row: np.ndarray
    mate_col: np.ndarray
    aux: "dict[str, np.ndarray] | None" = None

    @property
    def words(self) -> int:
        """8-byte words this snapshot occupies (the DistStats unit): each
        array at its :func:`~repro.runtime.pack.wire_dtype`'s width, as the
        wire and the stores hold it, and two header words."""
        arrays = (self.mate_row, self.mate_col, *(self.aux or {}).values())
        return 2 + sum((a.size * wire_dtype(a).itemsize + 7) // 8 for a in arrays)

    def mapped(self, f) -> "Checkpoint":
        """This snapshot with ``f`` applied to every array."""
        aux = self.aux and {name: f(a) for name, a in self.aux.items()}
        return Checkpoint(self.phase, f(self.mate_row), f(self.mate_col), aux)


@dataclass
class CheckpointStore:
    """In-memory store: keeps the latest checkpoint plus write counters."""

    _latest: Checkpoint | None = None
    saves: int = 0
    #: cumulative 8-byte words written over the store's lifetime (all
    #: incarnations of the job), reported as ``DistStats.checkpoint_words``
    words_written: int = 0
    _lock: threading.Lock = field(default_factory=threading.Lock, repr=False)

    def save(self, ck: Checkpoint) -> None:
        """Keep a narrowed copy of ``ck``, as the file store does: a
        writer may go on to mutate the arrays it saved."""
        with self._lock:
            if self._latest is not None and ck.phase < self._latest.phase:
                return  # never roll the store backwards
            self._latest = ck.mapped(_narrowed)
            self.saves += 1
            self.words_written += ck.words

    def latest(self) -> Checkpoint | None:
        with self._lock:
            ck = self._latest
        return ck and ck.mapped(_widened)

    def refresh_counters(self) -> None:
        """Nothing to fold: only this process writes an in-memory store."""


class FileCheckpointStore(CheckpointStore):
    """On-disk variant: one ``ck_phase{N}.npz`` per checkpointed phase.

    One incarnation of a job has one writer (``save_checkpoint`` writes
    from rank 0 only), but on the process backend that writer is a forked
    child, and a restarting driver may overlap a restarted incarnation with
    a dying one — so the store is safe under *concurrent multi-process
    writers*:

    * every critical section holds an ``fcntl`` flock on ``ck.lock``
      (processes) nested inside the usual thread lock (threads);
    * data files are written to a **pid-unique** temp name then atomically
      renamed, so two writers racing on the same phase can interleave
      freely — the loser's complete file simply replaces the winner's
      complete file, never a torn mix;
    * the ``saves`` / ``words_written`` counters live in a shared
      ``ck_counters.json`` sidecar (updated under the flock, also via
      temp-and-rename); :meth:`refresh_counters` folds the sidecar back
      into the instance attributes the stats layer reads.
    """

    _COUNTERS = "ck_counters.json"

    def __init__(self, directory: str) -> None:
        super().__init__()
        self.directory = directory
        os.makedirs(directory, exist_ok=True)

    def _path(self, phase: int) -> str:
        return os.path.join(self.directory, f"ck_phase{phase:06d}.npz")

    @contextlib.contextmanager
    def _flock(self):
        with self._lock:
            fd = os.open(os.path.join(self.directory, "ck.lock"),
                         os.O_CREAT | os.O_RDWR, 0o644)
            try:
                fcntl.flock(fd, fcntl.LOCK_EX)
                yield
            finally:
                os.close(fd)  # closing drops the flock

    def _read_counters(self) -> dict:
        try:
            with open(os.path.join(self.directory, self._COUNTERS)) as fh:
                return json.load(fh)
        except (FileNotFoundError, json.JSONDecodeError):
            return {"saves": 0, "words_written": 0}

    def _bump_counters(self, words: int) -> None:
        counters = self._read_counters()
        counters["saves"] += 1
        counters["words_written"] += words
        tmp = os.path.join(
            self.directory, f".{self._COUNTERS}.{os.getpid()}.tmp"
        )
        with open(tmp, "w") as fh:
            json.dump(counters, fh)
        os.replace(tmp, os.path.join(self.directory, self._COUNTERS))

    def refresh_counters(self) -> None:
        """Fold the shared sidecar back into this instance's counters —
        a forked rank 0 bumps the sidecar, not this object."""
        with self._flock():
            counters = self._read_counters()
            self.saves = int(counters["saves"])
            self.words_written = int(counters["words_written"])

    def save(self, ck: Checkpoint) -> None:
        tmp = f"{self._path(ck.phase)}.{os.getpid()}.tmp"
        held = ck.mapped(_narrowed)
        with open(tmp, "wb") as fh:
            np.savez(
                fh,
                phase=np.int64(ck.phase),
                mate_row=held.mate_row,
                mate_col=held.mate_col,
                # aux entries ride the same npz under a reserved prefix
                **{f"aux_{k}": v for k, v in (held.aux or {}).items()},
            )
        with self._flock():
            os.replace(tmp, self._path(ck.phase))
            self._bump_counters(ck.words)
            self.saves += 1
            self.words_written += ck.words

    def latest(self) -> Checkpoint | None:
        with self._flock():
            names = [
                n for n in os.listdir(self.directory)
                if n.startswith("ck_phase") and n.endswith(".npz")
            ]
            if not names:
                return None
            with np.load(os.path.join(self.directory, max(names))) as data:
                aux = {
                    k[len("aux_"):]: data[k]
                    for k in data.files
                    if k.startswith("aux_")
                }
                return Checkpoint(
                    phase=int(data["phase"]),
                    mate_row=data["mate_row"],
                    mate_col=data["mate_col"],
                    aux=aux or None,
                ).mapped(_widened)


__all__ = ["Checkpoint", "CheckpointStore", "FileCheckpointStore"]
