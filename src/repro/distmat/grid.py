"""The pr × pc process grid and its row/column sub-communicators."""

from __future__ import annotations

from ..runtime.comm import Communicator


class ProcGrid:
    """A 2D arrangement of the ranks of ``comm``.

    Rank ``r`` sits at grid position ``(i, j) = divmod(r, pc)``.  Each rank
    carries two sub-communicators created with ``comm.split``:

    * ``rowcomm`` — the pc ranks sharing grid row i (the SpMV *fold*
      all-to-all runs here);
    * ``colcomm`` — the pr ranks sharing grid column j (the SpMV *expand*
      allgather and the next-frontier column hop run here).

    The full communicator remains available as ``comm`` for the
    grid-global collectives (the RMA window's fences, job set-up and
    tear-down).
    """

    def __init__(self, comm: Communicator, pr: int, pc: int) -> None:
        if pr * pc != comm.size:
            raise ValueError(
                f"grid {pr}x{pc} needs {pr * pc} ranks, communicator has {comm.size}"
            )
        self.comm = comm
        self.pr = pr
        self.pc = pc
        self.i, self.j = divmod(comm.rank, pc)
        # Both splits are collectives; every rank calls them in the same order.
        self.rowcomm = comm.split(color=self.i)  # members: (i, 0..pc-1), rank == j
        self.colcomm = comm.split(color=self.j)  # members: (0..pr-1, j), rank == i
        assert self.rowcomm.rank == self.j
        assert self.colcomm.rank == self.i

    @property
    def rank(self) -> int:
        return self.comm.rank

    @property
    def nprocs(self) -> int:
        return self.comm.size

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"ProcGrid({self.pr}x{self.pc}, here=({self.i},{self.j}))"
