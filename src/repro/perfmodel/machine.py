"""Machine constants for the α-β model.

The default :data:`EDISON` spec models NERSC's Edison (Cray XC30, the
paper's platform): two 12-core Ivy Bridge sockets per node, Aries dragonfly
interconnect.  The constants are *effective* values for irregular sparse
graph kernels — memory-bound gather/scatter work, not peak flops — chosen so
that single-node BFS-like throughput and the paper's Fig. 9 gather times land
in the right decade.  Reproductions care about relative shape; any consistent
constant set preserves it.

:meth:`MachineSpec.price` is the one price of a run (DESIGN §5): every
caller outside this package and :mod:`repro.simulate` prices through it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import NamedTuple

from .collectives import degraded_params


class Price(NamedTuple):
    """A run's model seconds per rank, term by term (:meth:`MachineSpec.price`)."""

    alpha_s: float
    beta_s: float
    gamma_s: float
    rma_s: float

    @property
    def total(self) -> float:
        return self.alpha_s + self.beta_s + self.gamma_s + self.rma_s


@dataclass(frozen=True)
class GridShape:
    """A √P×√P process grid realized from a core allocation.

    ``nprocs = pr * pc`` MPI processes, each ``threads`` OpenMP threads wide.
    Only square grids are supported, as in the paper ("rectangular grids are
    not supported in CombBLAS").
    """

    pr: int
    pc: int
    threads: int

    @property
    def nprocs(self) -> int:
        return self.pr * self.pc

    @property
    def cores(self) -> int:
        return self.nprocs * self.threads

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"{self.pr}x{self.pc} grid x {self.threads} threads ({self.cores} cores)"


@dataclass(frozen=True)
class MachineSpec:
    """Cost constants of the modeled machine.

    Attributes
    ----------
    gamma:
        Seconds per edge operation of an irregular sparse kernel running on
        one core (memory-bound effective rate, not peak flop rate).
    alpha:
        Inter-process message latency in seconds (MPI pingpong half
        round-trip at small message size).
    beta:
        Seconds per 8-byte word of inter-process bandwidth.
    alpha_intra / beta_intra:
        Same constants for processes sharing a node (shared-memory
        transport); used when a communicator fits inside one node.
    cores_per_node / cores_per_socket:
        Topology, used to decide which α/β apply and to place one process
        per socket in hybrid runs, as the paper does.
    """

    name: str
    gamma: float
    alpha: float
    beta: float
    alpha_intra: float
    beta_intra: float
    cores_per_node: int
    cores_per_socket: int

    # -- topology-aware parameter selection ---------------------------------

    def comm_params(self, nprocs: int, threads: int) -> tuple[float, float]:
        """(α, β) seen by a communicator of ``nprocs`` processes.

        If the whole communicator fits on one node the cheaper intra-node
        constants apply; otherwise the interconnect constants do.
        """
        if nprocs * threads <= self.cores_per_node:
            return self.alpha_intra, self.beta_intra
        return self.alpha, self.beta

    def compute_time(self, ops: float, threads: int = 1) -> float:
        """Time for ``ops`` edge-operations on one process of ``threads``
        threads.  Intra-process OpenMP parallelism is modeled as ideal for
        the memory-bound kernels (they scale with memory channels up to a
        socket, which is exactly how the paper deploys one process/socket)."""
        return ops * self.gamma / max(1, threads)

    def price(self, p: int, steps=0, words=0, edges=0, rma_ops=0) -> Price:
        """The price of a run per rank, from counts summed over its ``p``
        ranks (a rank's own counts with ``p=1``): α·steps/p + β·words/p +
        γ·edges/p + (α+β)·rma_ops/p — the paper's T = F + αS + βW, with
        Algorithm 4's k/p·3h(α+β) charged per one-sided op.  ``edges`` is
        every edge read, the initializer's included.  The first three terms
        are computed in the e2e harness's operation order, so they equal its
        ``model.alpha_s`` / ``beta_s`` / ``gamma_s`` to the bit."""
        return Price(self.alpha * (steps / p), self.beta * (words / p),
                     self.gamma * edges / p, (self.alpha + self.beta) * rma_ops / p)

    def degraded(self, links, group) -> "MachineSpec":
        """This machine as a collective over ``group`` sees it through
        ``links`` (:func:`~repro.perfmodel.collectives.degraded_params`)."""
        alpha, beta = degraded_params(self.alpha, self.beta, links, group)
        return replace(self, alpha=alpha, beta=beta)

    # -- grid construction ----------------------------------------------------

    def square_grid(self, cores: int, threads: int = 1) -> GridShape:
        """Largest square process grid fitting in a ``cores`` allocation with
        ``threads`` threads per process.

        Mirrors the paper's setup: "When p cores are allocated ... we create
        a √(p/t) × √(p/t) process grid where t is the number of threads per
        process."  Non-square residues are left idle, as on the real machine.
        """
        if cores < threads:
            raise ValueError(f"cores ({cores}) < threads per process ({threads})")
        nprocs = cores // threads
        side = int(math.isqrt(nprocs))
        if side < 1:
            raise ValueError("allocation too small for a 1x1 grid")
        return GridShape(pr=side, pc=side, threads=threads)


#: Edison-like Cray XC30 constants (see module docstring for calibration).
EDISON = MachineSpec(
    name="edison-xc30",
    gamma=5e-9,          # 200 M edge-ops/s/core, memory-bound irregular kernel
    alpha=3e-6,          # Aries MPI latency
    beta=2.5e-10,        # ~4 GB/s effective per process pair (8 B / 2.5e-10 s)
    alpha_intra=6e-7,    # shared-memory transport
    beta_intra=5e-11,    # ~160 GB/s socket memory bandwidth
    cores_per_node=24,
    cores_per_socket=12,
)
