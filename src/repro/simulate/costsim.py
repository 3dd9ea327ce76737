"""Record-and-price performance simulation of MCM-DIST (see package doc).

The correspondence between recorded events and the paper's cost analysis
(Section IV-B):

===============  ============================================================
event             priced as
===============  ============================================================
spmv              expand: ring allgather of the frontier slice over the √P
                  ranks of each grid column (max over columns); compute: the
                  busiest block's touched edges / t threads; fold: pairwise
                  all-to-all of distinct (block, row) partial winners over
                  the √P ranks of a grid row
select_set        3 local passes over the busiest rank's frontier slice
invert_paths      all-to-all over ALL P ranks (αP latency — the paper's
                  strong-scaling bottleneck), volume 2 words/entry
prune             ring allgather of the μ new roots over P ranks + local
                  ψ/P·log μ filter
next_frontier     the second INVERT per iteration: all-to-all over P ranks
iteration_end     frontier-emptiness allreduce
augment           per phase, k and per-path walk lengths were recorded; the
                  k < 2p² switch is applied AT PRICE TIME (it depends on P):
                  level-parallel costs h·(6α(P-1) + 4β·k_l/P), path-parallel
                  costs 3(α+β)·(busiest rank's walk steps)
init rounds       explore priced like SpMV, resolve/update as all-to-alls,
                  one allreduce per round (two for mindegree's global min)
===============  ============================================================
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from ..matching.maximal_rounds import (
    MaximalHooks,
    greedy_rounds,
    karp_sipser_rounds,
    mindegree_rounds,
)
from ..matching.msbfs import MatchingStats, MsBfsHooks, ms_bfs_mcm
from ..perfmodel import EDISON, BspClock, Category, MachineSpec, collectives as C
from ..perfmodel.machine import GridShape
from ..sparse.coo import COO
from ..sparse.csc import CSC
from ..sparse.semiring import SR_MIN_PARENT, Semiring
from ..sparse.spvec import NULL

# ---------------------------------------------------------------------------
# recording
# ---------------------------------------------------------------------------


@dataclass
class Trace:
    """One measured execution of initializer + MCM on a graph."""

    n1: int
    n2: int
    nnz: int
    init_algo: "str | None"
    events: list[tuple[str, dict[str, Any]]] = field(default_factory=list)
    stats: "MatchingStats | None" = None
    mate_r: "np.ndarray | None" = None
    mate_c: "np.ndarray | None" = None

    @property
    def cardinality(self) -> int:
        return int((self.mate_r != NULL).sum()) if self.mate_r is not None else 0

    def add(self, kind: str, **payload: Any) -> None:
        self.events.append((kind, payload))


class _RecordingMsBfs(MsBfsHooks):
    def __init__(self, trace: Trace) -> None:
        self.t = trace

    def on_spmv(self, fc, cand_rows, cand_cols, fr):
        self.t.add(
            "spmv",
            fc_idx=fc.idx.copy(),
            cand_rows=cand_rows.copy(),
            cand_cols=cand_cols.copy(),
            fr_rows=fr.idx.copy(),
        )

    def on_select_set(self, fr, ufr):
        self.t.add("select_set", fr_rows=fr.idx.copy(), ufr_rows=ufr.idx.copy())

    def on_invert_paths(self, ufr):
        self.t.add("invert_paths", rows=ufr.idx.copy(), roots=ufr.root.copy())

    def on_prune(self, fr, new_path_roots, kept):
        self.t.add("prune", fr_rows=fr.idx.copy(), mu=int(new_path_roots.size))

    def on_next_frontier(self, fr, fc_cols):
        self.t.add("next_frontier", fr_rows=fr.idx.copy(), cols=fc_cols.copy())

    def on_iteration_end(self, iteration):
        self.t.add("iteration_end")

    def on_phase_end(self, paths_found, iters):
        self.t.add("phase_end")


class _RecordingMaximal(MaximalHooks):
    def __init__(self, trace: Trace) -> None:
        self.t = trace

    def on_explore(self, algo, cand_rows, cand_cols):
        self.t.add("init_explore", cand_rows=cand_rows.copy(), cand_cols=cand_cols.copy())

    def on_resolve(self, algo, proposals):
        self.t.add("init_resolve", proposals=int(proposals))

    def on_update(self, algo, rows_touched, cols_touched):
        self.t.add("init_update", rows=rows_touched.copy(), cols=cols_touched.copy())

    def on_round_end(self, algo, matched, idx):
        self.t.add("init_round_end", algo=algo)


_INIT_ROUNDS = {
    "greedy": greedy_rounds,
    "karp-sipser": karp_sipser_rounds,
    "mindegree": mindegree_rounds,
}


def record(
    coo: COO,
    *,
    init: "str | None" = "mindegree",
    prune: bool = True,
    semiring: Semiring = SR_MIN_PARENT,
    seed: int = 0,
    permute: bool = True,
) -> Trace:
    """Execute initializer + Algorithm 2 once, recording the cost trace.

    ``permute=True`` applies the paper's random vertex relabeling
    (Section IV-A, "to balance load across processors") before recording;
    without it, structured inputs like meshes pile their nonzeros onto the
    grid's diagonal blocks and the busiest-rank accounting reflects that
    imbalance rather than the algorithm.

    Augmentation is executed path-parallel so the trace captures every
    path's walk length; the level/path decision is re-made per target P at
    price time (results are identical either way).
    """
    if permute:
        from ..sparse.permute import randomly_permuted

        coo, _rp, _cp = randomly_permuted(coo, np.random.default_rng(seed + 0x5EED))
    a = CSC.from_coo(coo)
    trace = Trace(coo.nrows, coo.ncols, coo.nnz, init)
    if init is not None:
        fn = _INIT_ROUNDS.get(init)
        if fn is None:
            raise ValueError(f"unknown init {init!r}; choose from {sorted(_INIT_ROUNDS)}")
        res = fn(a, hooks=_RecordingMaximal(trace))
        mate_r, mate_c = res.mate_r, res.mate_c
    else:
        mate_r = mate_c = None
    rng = np.random.default_rng(seed)
    mate_r, mate_c, stats = ms_bfs_mcm(
        a, mate_r, mate_c,
        semiring=semiring, rng=rng, prune=prune,
        hooks=_RecordingMsBfs(trace),
        augment_mode="path",
    )
    trace.stats = stats
    trace.mate_r, trace.mate_c = mate_r, mate_c
    return trace


# ---------------------------------------------------------------------------
# pricing
# ---------------------------------------------------------------------------


@dataclass
class SimResult:
    """Model time of one (graph, machine, cores, threads) configuration."""

    cores: int
    threads: int
    grid: GridShape
    seconds: float
    breakdown: "Any"  # perfmodel.Breakdown
    cardinality: int
    trace: Trace

    @property
    def nprocs(self) -> int:
        return self.grid.nprocs


class _Pricer:
    """Prices one trace on one grid configuration."""

    def __init__(
        self,
        trace: Trace,
        machine: MachineSpec,
        grid: GridShape,
        alltoall: str = "bruck",
        allgather: str = "doubling",
    ) -> None:
        self.t = trace
        self.m = machine
        self.g = grid
        self.alg_a2a = alltoall
        self.alg_ag = allgather
        self.clock = BspClock(machine, grid)
        pr, pc = grid.pr, grid.pc
        self.P = pr * pc
        # matrix block sizes
        self.bs_r = max(1, -(-trace.n1 // pr))
        self.bs_c = max(1, -(-trace.n2 // pc))
        # vector sub-chunk sizes (row vector: pr blocks x pc subs; col: pc x pr)
        self.sub_r = max(1, -(-self.bs_r // pc))
        self.sub_c = max(1, -(-self.bs_c // pr))
        # communicator parameter sets
        self.ab_P = self.clock.alpha_beta_for(self.P)
        self.ab_pr = self.clock.alpha_beta_for(pr)
        self.ab_pc = self.clock.alpha_beta_for(pc)

    # -- rank maps (vectorized) -------------------------------------------------

    def row_block(self, rows: np.ndarray) -> np.ndarray:
        return np.minimum(rows // self.bs_r, self.g.pr - 1)

    def col_block(self, cols: np.ndarray) -> np.ndarray:
        return np.minimum(cols // self.bs_c, self.g.pc - 1)

    def row_vec_rank(self, rows: np.ndarray) -> np.ndarray:
        block = self.row_block(rows)
        sub = np.minimum((rows - block * self.bs_r) // self.sub_r, self.g.pc - 1)
        return block * self.g.pc + sub

    def col_vec_rank(self, cols: np.ndarray) -> np.ndarray:
        block = self.col_block(cols)
        sub = np.minimum((cols - block * self.bs_c) // self.sub_c, self.g.pr - 1)
        return sub * self.g.pc + block

    def edge_rank(self, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
        return self.row_block(rows) * self.g.pc + self.col_block(cols)

    @staticmethod
    def _busiest(ranks: np.ndarray, nranks: int) -> int:
        if ranks.size == 0:
            return 0
        return int(np.bincount(ranks, minlength=nranks).max())

    # -- event pricing --------------------------------------------------------------

    def spmv_like(self, category: Category, fc_idx, cand_rows, cand_cols) -> None:
        # expand: busiest grid column's frontier slice, allgathered over pr ranks
        vol_expand = 2 * self._busiest(self.col_block(fc_idx), self.g.pc)
        comm = C.allgather(self.g.pr, *self.ab_pr, vol_expand, self.alg_ag)
        # local compute: busiest block's touched edges (+ its reduction)
        ops = self._busiest(self.edge_rank(cand_rows, cand_cols), self.P)
        # fold: distinct (block, row) partial winners per block, all-to-all
        # over the pc ranks of a grid row
        if cand_rows.size:
            key = self.edge_rank(cand_rows, cand_cols) * np.int64(self.t.n1 + 1) + cand_rows
            u = np.unique(key)
            vol_fold = 3 * self._busiest((u // np.int64(self.t.n1 + 1)).astype(np.int64), self.P)
            ops += self._busiest(self.row_vec_rank(u % np.int64(self.t.n1 + 1)), self.P)
        else:
            vol_fold = 0
        comm += C.alltoallv(self.g.pc, *self.ab_pc, vol_fold, self.alg_a2a)
        self.clock.step(category, ops, comm)

    def price(self) -> BspClock:
        t, g = self.t, self.g
        a_P, b_P = self.ab_P
        for kind, ev in t.events:
            if kind == "spmv":
                self.spmv_like(Category.SPMV, ev["fc_idx"], ev["cand_rows"], ev["cand_cols"])
            elif kind == "select_set":
                ops = 3 * self._busiest(self.row_vec_rank(ev["fr_rows"]), self.P)
                self.clock.step(Category.SELECT_SET, ops, 0.0)
            elif kind == "invert_paths":
                vol = 2 * self._busiest(self.row_vec_rank(ev["rows"]), self.P)
                comm = C.alltoallv(self.P, a_P, b_P, vol, self.alg_a2a)
                ops = self._busiest(self.col_vec_rank(ev["roots"]), self.P)
                self.clock.step(Category.INVERT, ops, comm)
            elif kind == "prune":
                mu = ev["mu"]
                comm = C.allgather(self.P, a_P, b_P, mu, self.alg_ag)
                psi = self._busiest(self.row_vec_rank(ev["fr_rows"]), self.P)
                ops = psi * max(1.0, math.log2(mu + 2))
                self.clock.step(Category.PRUNE, ops, comm)
            elif kind == "next_frontier":
                vol = 2 * self._busiest(self.row_vec_rank(ev["fr_rows"]), self.P)
                comm = C.alltoallv(self.P, a_P, b_P, vol, self.alg_a2a)
                ops = self._busiest(self.col_vec_rank(ev["cols"]), self.P)
                self.clock.step(Category.INVERT, ops, comm)
            elif kind == "iteration_end":
                self.clock.charge_comm(
                    Category.OTHER, C.allreduce(self.P, a_P, b_P, 1, "doubling")
                )
            elif kind == "phase_end":
                self.clock.charge_comm(
                    Category.OTHER, C.allreduce(self.P, a_P, b_P, 1, "doubling")
                )
            elif kind == "init_explore":
                cols = ev["cand_cols"]
                u_cols = np.unique(cols) if cols.size else cols
                self.spmv_like(Category.INIT, u_cols, ev["cand_rows"], cols)
            elif kind == "init_resolve":
                vol = 2 * (-(-ev["proposals"] // self.P))
                comm = C.alltoallv(self.P, a_P, b_P, vol, self.alg_a2a)
                self.clock.step(Category.INIT, vol, comm)
            elif kind == "init_update":
                ops = self._busiest(self.row_vec_rank(ev["rows"]), self.P)
                ops += self._busiest(self.col_vec_rank(ev["cols"]), self.P)
                vol = 2 * (-(-(ev["rows"].size + ev["cols"].size) // self.P))
                comm = C.alltoallv(self.P, a_P, b_P, vol, self.alg_a2a)
                self.clock.step(Category.INIT, ops, comm)
            elif kind == "init_round_end":
                factor = 2 if ev.get("algo") == "mindegree" else 1
                self.clock.charge_comm(
                    Category.INIT,
                    factor * C.allreduce(self.P, a_P, b_P, 1, "doubling"),
                )
            else:  # pragma: no cover - trace corruption guard
                raise ValueError(f"unknown trace event {kind!r}")

        # -- augmentation: re-decide level vs path per call at THIS P
        if t.stats is not None:
            for steps in t.stats.augment.path_steps:
                k = int(steps.size)
                if k == 0:
                    continue
                if k < 2 * self.P * self.P:  # the paper's switch: path-parallel
                    per_rank = np.bincount(
                        np.arange(k) % self.P, weights=steps, minlength=self.P
                    ).max()
                    comm = 3 * per_rank * C.rma_op(a_P, b_P, 1.0)
                    comm += C.barrier_dissemination(self.P, a_P)  # closing fence
                    ops = per_rank
                else:  # level-parallel lockstep
                    h = int(steps.max())
                    comm = 0.0
                    ops = 0.0
                    for level in range(h):
                        active = int((steps > level).sum())
                        comm += 6 * C.alltoallv(self.P, a_P, b_P, 0.0, self.alg_a2a)
                        comm += b_P * 4 * (-(-active // self.P))
                        ops += -(-active // self.P)
                self.clock.step(Category.AUGMENT, ops, comm)
        return self.clock


def scaled_machine(reduction: float, machine: MachineSpec = EDISON) -> MachineSpec:
    """The bench-calibration machine: latency scaled with the problem.

    Stand-in graphs are ``reduction``× smaller than the paper's inputs, so
    per-rank *work* shrinks by that factor while per-collective *latency*
    would not — at paper-scale core counts every figure would degenerate
    into a latency plot of the miniature graph.  Dividing α by the same
    reduction factor restores the paper's compute/latency balance;
    bandwidth (β) terms need no adjustment because communication volumes
    shrink with the graph automatically.  All model times are therefore
    "reduced-Edison seconds": comparable across configurations of one
    experiment (which is what the figures plot), not across machines.
    """
    import dataclasses

    return dataclasses.replace(
        machine,
        alpha=machine.alpha / reduction,
        alpha_intra=machine.alpha_intra / reduction,
    )


def price(
    trace: Trace,
    cores: int,
    threads: int = 12,
    machine: MachineSpec = EDISON,
    *,
    alltoall: str = "bruck",
    allgather: str = "doubling",
) -> SimResult:
    """Price a recorded trace at one (cores, threads) configuration.

    ``alltoall``/``allgather`` select the modeled collective algorithms:
    the defaults ("bruck"/"doubling") model the small-message regime of
    production MPI (what the paper's measured runs rode;
    :mod:`repro.runtime.comm`'s own all-to-all is pairwise);
    "pairwise"/"ring" reproduce the paper's worst-case Section IV-B
    bounds; allreduce is always priced as recursive doubling.
    """
    grid = machine.square_grid(cores, threads)
    clock = _Pricer(trace, machine, grid, alltoall, allgather).price()
    return SimResult(
        cores=cores,
        threads=threads,
        grid=grid,
        seconds=clock.time,
        breakdown=clock.breakdown,
        cardinality=trace.cardinality,
        trace=trace,
    )


def simulate_mcm(
    coo: COO,
    cores: int,
    threads: int = 12,
    *,
    machine: MachineSpec = EDISON,
    init: "str | None" = "mindegree",
    prune: bool = True,
    semiring: Semiring = SR_MIN_PARENT,
    seed: int = 0,
) -> SimResult:
    """Record + price in one call (single configuration)."""
    trace = record(coo, init=init, prune=prune, semiring=semiring, seed=seed)
    return price(trace, cores, threads, machine)


def sweep(
    coo: COO,
    cores_list: "list[int]",
    threads: int = 12,
    *,
    machine: MachineSpec = EDISON,
    init: "str | None" = "mindegree",
    prune: bool = True,
    semiring: Semiring = SR_MIN_PARENT,
    seed: int = 0,
) -> list[SimResult]:
    """Record once, price at every core count (the strong-scaling workflow)."""
    trace = record(coo, init=init, prune=prune, semiring=semiring, seed=seed)
    return [price(trace, c, threads, machine) for c in cores_list]
