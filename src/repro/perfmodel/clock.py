"""Bulk-synchronous simulated clock.

The distributed algorithm is level-synchronous: every iteration is a
sequence of supersteps (local compute on all ranks, then a collective).
Under the BSP abstraction the step time is the *maximum* per-rank compute
time plus the collective's cost, and all rank clocks advance together — so a
single scalar clock suffices.  The execution-driven simulator calls
:meth:`BspClock.step` once per superstep with the measured per-rank maximum
work and the priced communication.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from .machine import MachineSpec, GridShape
from .timers import Breakdown, Category


class MonotonicTicks:
    """Deterministic monotonic clock: every read advances one tick.

    The span tracer (:mod:`repro.runtime.trace`) stamps events with a
    callable clock.  Wall time (``time.perf_counter``) is the profiling
    default, but it makes traces differ run to run; this clock makes a
    rank's timestamps a pure function of its own sequence of trace calls,
    so simulated runs trace deterministically — two runs of the same
    program produce byte-identical trace files.  Each rank owns a private
    instance (ticks count that rank's events, there is no global order).
    """

    __slots__ = ("_ticks",)

    def __init__(self) -> None:
        # itertools.count increments atomically on CPython, so a foreign
        # thread (the executor's flush of a crashed rank) can read safely.
        self._ticks = itertools.count()

    def __call__(self) -> float:
        return float(next(self._ticks))


@dataclass
class BspClock:
    """Simulated time for one (machine, grid) configuration."""

    machine: MachineSpec
    grid: GridShape
    time: float = 0.0
    breakdown: Breakdown = field(default_factory=Breakdown)

    def alpha_beta_for(self, nprocs: int) -> tuple[float, float]:
        """(α, β) for a sub-communicator of ``nprocs`` processes (e.g. one
        grid row of √P processes)."""
        return self.machine.comm_params(nprocs, self.grid.threads)

    def step(self, category: Category, max_ops: float, comm_seconds: float) -> float:
        """Advance the clock by one superstep.

        Parameters
        ----------
        category:
            Which kernel the step belongs to (for the Fig. 5 breakdown).
        max_ops:
            Edge-operations performed by the busiest process in this step;
            converted to seconds with the machine's γ and divided by the
            process's thread count (ideal intra-socket OpenMP scaling).
        comm_seconds:
            Already-priced communication time of the step.

        Returns the step's duration in model seconds.
        """
        compute = self.machine.compute_time(max_ops, self.grid.threads)
        self.time += compute + comm_seconds
        self.breakdown.charge(category, compute, comm_seconds)
        return compute + comm_seconds

    def charge_comm(self, category: Category, comm_seconds: float) -> float:
        """Communication-only superstep."""
        return self.step(category, 0.0, comm_seconds)
