"""Per-layer measurements, taken from outside: every number here times a
call into one ``src/repro`` package's public functions on the workload's
own graph, grid and backend, inside a span of the benchmark's own trace.

A measurement that cannot run (a public function was renamed or changed
its signature) raises :class:`LayerError` naming the layer, so a refactor
that breaks what the benchmark times fails loudly instead of reporting 0.
"""

from __future__ import annotations

import numpy as np

from repro import kernels
from repro.distmat import DistDenseVec, DistSparseMatrix, DistVertexFrontier, ProcGrid, ops
from repro.matching import auction, auction_mwm_serial, maximum_matching
from repro.perfmodel import EDISON
from repro.runtime import SUM, Window, pack_arrays, shm, spmd, unpack_arrays
from repro.simulate import price, record
from repro.sparse import CSC, DCSC, VertexFrontier
from repro.sparse.semiring import reduce_candidates
from repro.sparse.spvec import NULL

from timing import Spans, median, now, repeat
from workloads import EPSILON, SOLVE_TIMEOUT_S, Instance

#: collective op (the part of a ``comm_by_alg`` key before the colon) ->
#: the measured floor that prices one call of it; anything else (bcast,
#: scatter, gather, reduce, scans) is priced at the barrier floor
FLOOR_OF = {
    "allreduce": "runtime.allreduce_us",
    "allgather": "runtime.allgather_us",
    "allgatherv": "runtime.allgather_us",
    "alltoall": "runtime.alltoall_us",
    "alltoallv": "runtime.alltoall_us",
}

BIG_WORDS_PER_PEER = 65536
ROUTE_WORDS_TOTAL = 1_000_000


class LayerError(RuntimeError):
    """A per-layer measurement could not run; names the layer."""


def _noop(comm):
    return None


def _rank_probe(comm, coo, pr: int, pc: int, reps: int):
    """SPMD body of the in-job measurements: null-collective floors, then
    the distmat primitives on the scattered workload graph.  Rank 0 returns
    ``(records, values)``: ``(name, start, end)`` per measurement and the
    metric values; other ranks return None."""
    p, rank = comm.size, comm.rank
    records, values = [], {}

    def timed(name, fn, n=1):
        """Median seconds of n individually timed calls (all ranks call)."""
        start = now()
        seconds = repeat(fn, n)
        records.append((name, start, now()))
        return seconds

    two = np.arange(2, dtype=np.int64)
    eight = np.arange(8, dtype=np.int64)
    small = [eight] * p
    values["runtime.barrier_us"] = 1e6 * timed("runtime.barrier", comm.barrier, reps)
    values["runtime.allreduce_us"] = 1e6 * timed(
        "runtime.allreduce", lambda: comm.allreduce(two, op=SUM), reps)
    values["runtime.allgather_us"] = 1e6 * timed(
        "runtime.allgather", lambda: comm.allgather(two), reps)
    values["runtime.alltoall_us"] = 1e6 * timed(
        "runtime.alltoall", lambda: comm.alltoall(small), reps)
    big = [np.arange(BIG_WORDS_PER_PEER, dtype=np.int64)] * p
    values["runtime.alltoall_ns_per_word"] = 1e9 * timed(
        "runtime.alltoall_big", lambda: comm.alltoall(big), max(3, reps // 20)
    ) / (p * p * BIG_WORDS_PER_PEER)

    win = Window(comm, np.zeros(8, dtype=np.int64))
    values["runtime.rma_fetch_op_us"] = 1e6 * timed(
        "runtime.rma_fetch_op", lambda: win.fetch_and_op((rank + 1) % p, 0, rank), reps)
    win.fence()
    win.free()

    grid = ProcGrid(comm, pr, pc)
    holder = {}

    def scatter():
        holder["A"] = DistSparseMatrix.scatter_from_root(grid, coo if rank == 0 else None)
        comm.barrier()

    comm.barrier()
    values["distmat.scatter_s"] = timed("distmat.scatter", scatter)
    A = holder["A"]

    mine = DistVertexFrontier(grid, A.ncols, "col")
    idx = np.arange(mine.lo, mine.hi, dtype=np.int64)
    full = DistVertexFrontier(grid, A.ncols, "col", idx, idx, idx)
    comm.barrier()
    values["distmat.spmv_full_s"] = timed("distmat.spmv_full", lambda: ops.spmv(A, full), 3)

    c0 = comm.bcast(int(coo.cols[0]) if rank == 0 else None)
    one = np.array([c0], dtype=np.int64) if mine.lo <= c0 < mine.hi else idx[:0]
    thin = DistVertexFrontier(grid, A.ncols, "col", one, one, one)
    comm.barrier()
    values["distmat.spmv_thin_us"] = 1e6 * timed(
        "distmat.spmv_thin", lambda: ops.spmv(A, thin), reps)

    dest8 = (eight + rank) % p
    values["distmat.route_us"] = 1e6 * timed(
        "distmat.route", lambda: ops.route(comm, dest8, eight), reps)
    row_vec = DistDenseVec(grid, A.nrows, "row")
    targets = (eight * 7919 + rank * 131) % A.nrows
    values["distmat.invert_route_us"] = 1e6 * timed(
        "distmat.invert_route", lambda: ops.invert_route(grid, targets, eight, row_vec), reps)

    n = ROUTE_WORDS_TOTAL // (2 * p)
    payload = np.arange(n, dtype=np.int64)
    dest = (payload + rank) % p
    comm.barrier()
    values["distmat.route_ns_per_word"] = 1e9 * timed(
        "distmat.route_big", lambda: ops.route(comm, dest, payload, payload), 3
    ) / (2 * n * p)
    return (records, values) if rank == 0 else None


def in_job(inst: Instance, spans: Spans, reps: int) -> dict:
    """runtime.* floors and distmat.* primitives, inside one job at the
    workload's grid and backend; plus the job launch cost itself."""
    w = inst.workload
    out = {}
    with spans.span("runtime.launch"):
        out["runtime.launch_s"] = repeat(
            lambda: spmd(w.p, _noop, backend=w.backend, timeout=SOLVE_TIMEOUT_S), 5)
    with spans.span("layers.in_job") as job:
        result = spmd(w.p, _rank_probe, inst.coo, w.pr, w.pc, reps,
                      backend=w.backend, timeout=SOLVE_TIMEOUT_S)
    records, values = result[0]
    spans.add_children(job, records)
    out.update(values)
    return out


def local_kernels(inst: Instance, spans: Spans, reps: int) -> dict:
    """sparse.*, kernels.*, the pack and codec halves of runtime.*, and the
    auction's top-2 kernel: serial calls on the whole workload graph."""
    coo, out = inst.coo, {}
    nnz = coo.nnz
    holder = {}

    def build():
        holder["csc"] = CSC.from_coo(coo)
        holder["dcsc"] = DCSC.from_coo(coo)

    with spans.span("sparse.build"):
        out["sparse.build_s"] = repeat(build, reps)
    csc, dcsc = holder["csc"], holder["dcsc"]
    cols = np.arange(coo.ncols, dtype=np.int64)
    frontier = VertexFrontier.roots_of_self(coo.ncols, cols)
    with spans.span("sparse.spmv"):
        out["sparse.spmv_ns_per_edge"] = 1e9 * repeat(lambda: csc.spmv_frontier(frontier), reps) / nnz
    rows, parents, roots, _ = csc.explode_frontier(frontier)
    with spans.span("sparse.reduce"):
        out["sparse.reduce_ns_per_cand"] = 1e9 * repeat(
            lambda: reduce_candidates(rows, parents, roots), reps) / rows.size

    with spans.span("kernels.ragged_gather"):
        out["kernels.ragged_gather_ns_per_edge"] = 1e9 * repeat(
            lambda: kernels.ragged_gather_flat(csc.indptr, csc.indices, cols), reps) / nnz
    with spans.span("kernels.keyed_min_scatter"):
        out["kernels.keyed_min_scatter_ns_per_key"] = 1e9 * repeat(
            lambda: kernels.keyed_min_scatter(rows, parents, 0, coo.nrows), reps) / rows.size
    row_ptr, col_idx = dcsc.csr_mirror()
    all_rows = np.arange(coo.nrows, dtype=np.int64)
    with spans.span("kernels.pull_candidates"):
        out["kernels.pull_candidates_ns_per_edge"] = 1e9 * repeat(
            lambda: kernels.pull_candidates(row_ptr, col_idx, all_rows, cols, NULL), reps) / nnz
    out["kernels.is_numba"] = float(kernels.HAVE_NUMBA)

    with spans.span("runtime.pack"):
        out["runtime.pack_ns_per_word"] = 1e9 * repeat(
            lambda: unpack_arrays(pack_arrays(rows, parents, roots)), reps) / (3 * rows.size)
    eight = np.arange(8, dtype=np.int64)
    big = np.arange(BIG_WORDS_PER_PEER, dtype=np.int64)

    def codec(payload):
        return shm.decode_frame(bytearray(shm.encode_frame([(7, 1, None, payload)])))

    with spans.span("runtime.codec"):
        out["runtime.codec_small_us"] = 1e6 * repeat(lambda: codec((eight, eight)), 200)
        out["runtime.codec_ns_per_word"] = 1e9 * repeat(lambda: codec((big,)), 20) / big.size

    out["matching.top2_ns_per_edge"] = 0.0
    if inst.workload.weighted:
        cp, ir, wts = auction.build_csc(coo.nrows, coo.ncols, coo.rows, coo.cols, inst.weights)
        price0 = np.zeros(coo.nrows)
        with spans.span("matching.top2"):
            out["matching.top2_ns_per_edge"] = 1e9 * repeat(
                lambda: auction.top2_cols(cp, ir, wts, cols, price0), 20) / nnz
    return out


def comparators(inst: Instance, spans: Spans, reps: int, price_budget_s: float) -> dict:
    """The same engine at 1x1, the serial engine, and the cost simulator."""
    coo, w, out = inst.coo, inst.workload, {}
    with spans.span("matching.p1_solve"):
        out["matching.p1_solve_s"] = repeat(lambda: inst.solve(1, 1), reps)
    if w.weighted:
        def serial():
            auction_mwm_serial(coo.nrows, coo.ncols, coo.rows, coo.cols, inst.weights,
                               epsilon=EPSILON)
    else:
        def serial():
            maximum_matching(coo, init="greedy")
    with spans.span("matching.serial_solve"):
        out["matching.serial_solve_s"] = repeat(serial, reps)

    from benchmarks.common import CORE_SWEEP

    holder = {}
    with spans.span("simulate.record"):
        t0 = now()
        holder["trace"] = record(coo, init="greedy")
        out["simulate.record_s"] = now() - t0
    # seconds per sweep configuration: er(15) prices at ~1.5 s a point, so
    # stop once the budget is spent rather than walk all seven
    with spans.span("simulate.price"):
        per_point, t_end = [], now() + price_budget_s
        for cores, threads in CORE_SWEEP:
            t0 = now()
            price(holder["trace"], cores, threads, EDISON)
            per_point.append(now() - t0)
            if now() > t_end:
                break
        out["simulate.price_s"] = median(per_point)
    return out


def measure(inst: Instance, spans: Spans, quick: bool) -> dict:
    """Every measured per-layer metric except the ``run.*``/count ones."""
    try:
        return {
            **in_job(inst, spans, 20 if quick else 200),
            **local_kernels(inst, spans, 1 if quick else 3),
            **comparators(inst, spans, 1 if quick else 3, 0.0 if quick else 2.0),
        }
    except Exception as exc:
        raise LayerError(
            f"measuring {spans.failed_in}: {type(exc).__name__}: {exc}"
        ) from exc
