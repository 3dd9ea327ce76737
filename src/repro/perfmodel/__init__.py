"""The α-β performance model used to price communication and computation.

Section IV-B of the paper analyses MCM-DIST in the standard latency/bandwidth
model: an algorithm that performs ``F`` arithmetic operations, sends ``S``
messages and moves ``W`` words takes ``T = F + αS + βW`` time, with α the
per-message latency and β the inverse bandwidth, both expressed relative to
one arithmetic operation.  This package turns that analysis into code:

* :class:`~repro.perfmodel.machine.MachineSpec` — the machine constants
  (per-edge-op time γ, α, β, node/socket topology) with an Edison-like
  default, and :meth:`~repro.perfmodel.machine.MachineSpec.price`, the one
  price of a run per rank (a :class:`~repro.perfmodel.machine.Price`);
* :mod:`~repro.perfmodel.collectives` — the per-collective cost formulas
  matching the algorithms implemented in :mod:`repro.runtime.comm`;
* :class:`~repro.perfmodel.clock.BspClock` — a bulk-synchronous simulated
  clock that the execution-driven simulator advances superstep by superstep;
* :class:`~repro.perfmodel.timers.Breakdown` — per-kernel time attribution
  (SpMV / INVERT / PRUNE / SELECT+SET / AUGMENT / INIT), the quantity Fig. 5
  of the paper plots.

The model prices the *measured* work of a real execution (frontier sizes,
nonzeros touched, message volumes all come from running the actual
algorithm), so figures reproduce the paper's shapes even though absolute
times are model seconds rather than Cray wall-clock.
"""

from .machine import MachineSpec, EDISON, GridShape
from .clock import BspClock
from .links import ANY_RANK, LinkModel
from .timers import Breakdown, Category
from . import collectives

__all__ = [
    "ANY_RANK",
    "Breakdown",
    "BspClock",
    "Category",
    "EDISON",
    "GridShape",
    "LinkModel",
    "MachineSpec",
    "collectives",
]
