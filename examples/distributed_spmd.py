#!/usr/bin/env python
"""Run MCM-DIST as a real SPMD job on the simulated MPI runtime.

Every rank owns only its DCSC block of the 2D-partitioned matrix and its
slices of the vectors; all coordination flows through collectives, routed
all-to-alls, and — for path-parallel augmentation — one-sided RMA windows.
This is the same code path a production mpi4py deployment would execute.

The example launches the job on a 3x3 process grid, verifies the
distributed result against the serial engine, prints the logical message
ledger next to the physical frames that carried it (every communicator of
a 3x3 grid has three or more ranks, so the runtime picks the hub/star
plans by itself), and records a per-rank span trace whose critical-path
breakdown is printed at the end (``trace-report`` over the same data lives
in the CLI).

Run:  python examples/distributed_spmd.py
"""

import repro
from repro.graphs import rmat
from repro.matching import ms_bfs_mcm
from repro.matching.job import merge_by_alg
from repro.matching.mcm_dist import mcm_dist_spmd
from repro.runtime import spmd
from repro.simulate.critpath import report_trace


def rank_main(comm, coo, pr, pc):
    # module-level (not a closure) so a process backend could pickle it —
    # exactly what `repro lint` rule SPMD703 enforces
    data = coo if comm.rank == 0 else None
    return mcm_dist_spmd(comm, data, pr, pc, init="greedy")


def main() -> None:
    coo = rmat.ssca(scale=10, seed=5)
    print(f"graph: {coo.nrows:,} x {coo.ncols:,}, {coo.nnz:,} edges")

    pr = pc = 3

    # traced run on the default (latency-aware) collective engine; the
    # deterministic tick clock makes the trace byte-identical across runs
    result = spmd(pr * pc, rank_main, coo, pr, pc, timeout=300.0, trace="ticks")
    mate_r, mate_c, stats = result[0]

    print(f"grid                 : {pr} x {pc} simulated ranks")
    print(f"initial (greedy)     : {stats.initial_cardinality:,}")
    print(f"maximum matching     : {stats.final_cardinality:,}")
    print(f"phases / iterations  : {stats.phases} / {stats.iterations}")
    print(f"augmentation         : {stats.augment_level_calls} level-parallel, "
          f"{stats.augment_path_calls} path-parallel (RMA) calls")

    # -- per-rank communication profile --------------------------------------
    print("\nper-rank traffic (messages sent / 8-byte words):")
    for r, s in enumerate(result.stats):
        print(f"  rank {r} (grid {divmod(r, pc)}): {s.messages_sent:>6} msgs  "
              f"{s.words_sent:>10,} words")
    print(f"  total: {result.total_messages:,} messages, {result.total_words:,} words")

    # -- logical messages vs the physical frames that carried them -----------
    messages = sum(st.comm_messages for _, _, st in result.values)
    frames = sum(st.frames for _, _, st in result.values)
    steps = sum(d["steps"] for d in merge_by_alg(result.values).values())
    assert frames < messages, "3-rank communicators must run the hub plans"
    print(f"\ncollective engine    : {steps:,} modeled latency steps; "
          f"{messages:,} logical messages in {frames:,} physical frames "
          f"({messages / max(frames, 1):.1f} logical messages per frame)")

    # -- span trace: who bounded each phase? ---------------------------------
    print("\ncritical-path breakdown of the traced run:")
    print(report_trace(result.trace, top=3))

    # -- cross-check against the serial matrix-algebra engine ----------------
    a = repro.CSC.from_coo(coo)
    serial_r, serial_c, _ = ms_bfs_mcm(a)
    assert int((mate_r != -1).sum()) == int((serial_r != -1).sum()), \
        "distributed and serial engines must agree on cardinality"
    assert repro.verify_maximum(a, mate_r, mate_c)
    print("\ndistributed result verified maximum (König certificate) and equal "
          "in cardinality to the serial engine")


if __name__ == "__main__":
    main()
