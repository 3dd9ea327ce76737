"""Clocks for a machine whose speed drifts: the calibration kernel, the
calibrated-sample protocol, spans, and the /proc counters recorded beside
every timing.

On this shared 2-vCPU VM the *same pinned code* runs up to 20 % faster or
slower from one 20 s window to the next with CPU time tracking wall time
(the machine's speed moves; the process is not descheduled).  Every timed
sample is therefore bracketed by :func:`calib`, a frozen kernel owned by
the benchmark, and reported as ``wall x CALIB_NOMINAL_S / mean(calib
before, calib after)`` — seconds on a machine that runs ``calib`` in
exactly ``CALIB_NOMINAL_S``.  ``calib`` must never change: every number a
later PR compares against was divided by it.

The second disturbance is the hypervisor taking the vCPU away, which no
kernel timed *beside* a sample can see: each sample's wall time is first
reduced by the steal that /proc/stat charged to its CPUs while it ran
(10 ms resolution on a ~1 s sample).  On the one 5-minute recording with
heavy steal (76 ms per solve) that halved the spread of 15 s-window medians,
0.068 to 0.037; on four recordings with under 25 ms per solve it changed
nothing that could be told from noise (README.md).
"""

from __future__ import annotations

import ctypes
import json
import os
import resource
import signal
import statistics
import time
from contextlib import contextmanager

import numpy as np

CALIB_NOMINAL_S = 0.080
TICK_S = 1.0 / os.sysconf("SC_CLK_TCK")

#: one clock for the window process, its set-up children and forked ranks:
#: CLOCK_MONOTONIC is system-wide, so their timestamps share an origin
now = time.monotonic

_rng = np.random.default_rng(0xCA11B)
_KEYS = _rng.integers(0, 1 << 40, 200_000)
_GATHER = _rng.integers(0, _KEYS.size, 600_000)
_BINS = _rng.integers(0, 4096, 600_000)


def calib() -> float:
    """Seconds the frozen kernel takes right now: a NumPy half (sort,
    fancy gather, bincount, cumsum, unique) and an interpreter half (a
    Python loop with a dict insert every 32nd step) of about equal length,
    because the engines are a mix of both."""
    t0 = now()
    gathered = np.sort(_KEYS)[_GATHER]
    np.bincount(_BINS, minlength=4096)
    np.cumsum(gathered)
    np.unique(_BINS)
    d = {}
    for i in range(1_000_000):
        if not i & 31:
            d[i] = i
    return now() - t0


def steal_ticks(cpus=None) -> int:
    """Cumulative ticks the hypervisor kept ``cpus`` (default: every CPU)
    from this machine, from /proc/stat's steal column."""
    wanted = {"cpu"} if cpus is None else {f"cpu{c}" for c in cpus}
    ticks = 0
    with open("/proc/stat") as f:
        for line in f:
            fields = line.split()
            if fields[0] in wanted:
                ticks += int(fields[8])
    return ticks


class Calibrated:
    """The calibration chain of one run: every sample is closed by a
    ``calib()`` reading, which is also the one before the next sample.
    ``cpus`` are the CPUs the samples run on, whose steal is subtracted."""

    def __init__(self, cpus) -> None:
        self.cpus = sorted(cpus)
        self.calibs = [calib()]

    def close(self, wall: float, stolen_ticks: int) -> float:
        """Calibrated seconds of a sample that took ``wall`` seconds,
        ``stolen_ticks`` of them stolen, and ended just now."""
        self.calibs.append(calib())
        bracket = 0.5 * (self.calibs[-2] + self.calibs[-1])
        return max(wall - stolen_ticks * TICK_S, 0.0) * CALIB_NOMINAL_S / bracket

    def time(self, fn):
        """Run ``fn()`` as one sample; returns ``(result, wall, calibrated)``."""
        stolen0, t0 = steal_ticks(self.cpus), now()
        result = fn()
        wall = now() - t0
        return result, wall, self.close(wall, steal_ticks(self.cpus) - stolen0)


class Samples:
    """Raw and calibrated seconds of the successful samples of one kind."""

    def __init__(self) -> None:
        self.raw: list[float] = []
        self.cal: list[float] = []

    def add(self, wall: float, calibrated: float) -> None:
        self.raw.append(wall)
        self.cal.append(calibrated)


def median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


def iqr_frac(values) -> float:
    """(Q3 - Q1) / median, the spread figure the driver gates on."""
    if len(values) < 2:
        return 0.0
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2 if q2 else 0.0


def high_percentile(values) -> float:
    """The highest percentile that still has ten samples beyond it (the
    maximum when there are not yet eleven samples)."""
    if not values:
        return 0.0
    return float(sorted(values)[max(0, len(values) - 11)] if len(values) > 10 else max(values))


def repeat(fn, reps: int) -> float:
    """Median seconds of ``reps`` calls of ``fn()``."""
    out = []
    for _ in range(reps):
        t0 = now()
        fn()
        out.append(now() - t0)
    return median(out)


def peak_rss_mib() -> float:
    """Peak resident set of this process since its exec, or of any child it
    has reaped (the forked ranks of the process backend), whichever is
    larger.  VmHWM, not ``ru_maxrss``: that one starts at the launching
    process's own peak, 347 MiB in a set-up child that never passed 268."""
    with open("/proc/self/status") as f:
        own_kib = next(int(line.split()[1]) for line in f if line.startswith("VmHWM:"))
    return max(own_kib, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss) / 1024.0


def live_children() -> list[int]:
    """Pids of every process whose parent is this one, zombies included."""
    me, out = os.getpid(), []
    for entry in os.listdir("/proc"):
        if entry.isdigit():
            try:
                with open(f"/proc/{entry}/stat", "rb") as f:
                    # field 4 is the ppid; the comm field may contain spaces
                    ppid = int(f.read().rsplit(b")", 1)[1].split()[1])
            except (OSError, IndexError, ValueError):
                continue  # the process exited while we were reading
            if ppid == me:
                out.append(int(entry))
    return out


def adopt_orphans() -> None:
    """Make this process the one that inherits its descendants when their
    parent ends before them (prctl PR_SET_CHILD_SUBREAPER), so that
    :func:`stop_children` sees, stops and waits for those too -- the ranks and
    the resource tracker of a set-up child that had to be killed."""
    ctypes.CDLL(None, use_errno=True).prctl(36, 1, 0, 0, 0)


def stop_resource_tracker() -> None:
    """End multiprocessing's resource tracker, which the first shared-memory
    segment of the process backend starts as our child and which otherwise
    ends only some time after we have: close its pipe, wait for it."""
    from multiprocessing import resource_tracker

    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()


def _reap(pid: int, seconds: float) -> bool:
    """Wait up to ``seconds`` for our child ``pid``; True once it is gone."""
    deadline = now() + seconds
    while True:
        try:
            if os.waitpid(pid, os.WNOHANG)[0] == pid:
                return True
        except ChildProcessError:
            return True  # already reaped
        if now() >= deadline:
            return False
        time.sleep(0.01)


def stop_children() -> None:
    """Leave no process behind, on any path out: the resource tracker is
    told to end, anything else still our child is terminated, then killed,
    and each is waited for."""
    stop_resource_tracker()
    for pid in live_children():
        if _reap(pid, 0.0):
            continue  # had ended already
        for sig, grace in ((signal.SIGTERM, 2.0), (signal.SIGKILL, 5.0)):
            try:
                os.kill(pid, sig)
            except ProcessLookupError:
                break
            if _reap(pid, grace):
                break


class Spans:
    """The benchmark's own trace: one span (name, start, end, parent) around
    every call it makes into a layer, held in memory, written at exit."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._stack: list[int] = []
        #: name of the innermost span an exception escaped from
        self.failed_in: "str | None" = None

    @contextmanager
    def span(self, name: str):
        rec = {"id": len(self.spans), "name": name, "start": now(), "end": None,
               "parent": self._stack[-1] if self._stack else None}
        self.spans.append(rec)
        self._stack.append(rec["id"])
        try:
            yield rec
        except BaseException:
            if self.failed_in is None:
                self.failed_in = name
            raise
        finally:
            self._stack.pop()
            rec["end"] = now()

    def add_children(self, parent: dict, records) -> None:
        """Adopt ``(name, start, end)`` records a rank took inside the job
        that ``parent`` spans (same system-wide clock)."""
        for name, start, end in records:
            self.spans.append({"id": len(self.spans), "name": name, "start": start,
                               "end": end, "parent": parent["id"]})

    def dump(self, path) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as f:
            json.dump({"clock": "CLOCK_MONOTONIC seconds", "spans": self.spans}, f)
