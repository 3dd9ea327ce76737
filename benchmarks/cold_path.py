#!/usr/bin/env python3
"""Where a cold MCM-DIST job spends its set-up: one stage table.

    python benchmarks/cold_path.py [--workload mcm_bulk_t4] [--seed 0] [--cpu 0]

Runs in a fresh interpreter, like the e2e benchmark's set-up child (exec to
first solve), pinned to one CPU, and splits that time into stages:

* ``imports`` — from this script's first line: the engine and the
  workload table;
* ``input build`` — ``benchmarks/e2e/workloads.build`` (generator, dedup);
* ``relabel`` — ``mcm_dist.relabeled``, the paper's §IV-A permutation;
* ``scatter`` — job launch to rank 0 entering its initializer: the root
  scatter and the DCSC blocks;
* ``greedy`` — rank 0's ``init:greedy`` span;
* ``BFS and close`` — the phases (the serial tail's, gather included, when
  the job hands off; else the closing allgather of the mates) and the join.

The job runs traced on the workload's grid, on the thread backend (one
process, one clock), whatever backend the workload names; the stage times
are wall seconds.  The job relabels its input again before it launches,
so ``scatter`` subtracts the ``relabel`` time measured here.  The last
line is the process's peak RSS.
"""

from __future__ import annotations

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", default="mcm_bulk_t4")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--cpu", type=int, default=0, help="the CPU to pin to (-1: no pinning)")
    args = ap.parse_args(argv)
    if args.cpu >= 0:
        os.sched_setaffinity(0, {args.cpu})
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "benchmarks" / "e2e")]

    import workloads

    from repro.matching.mcm_dist import relabeled, run_mcm_dist

    stages = [("imports", time.perf_counter() - T0)]
    t = time.perf_counter()
    inst = workloads.build(args.workload, args.seed)
    w = inst.workload
    if w.weighted:
        ap.error(f"{args.workload} is not an MCM workload")
    stages.append(("input build", time.perf_counter() - t))
    t = time.perf_counter()
    relabeled(inst.coo)
    stages.append(("relabel", time.perf_counter() - t))

    t = time.perf_counter()
    stats = run_mcm_dist(inst.coo, w.pr, w.pc, backend="thread", trace=True)[2]
    end = time.perf_counter()
    init = next(sp for sp in stats.trace.spans[0] if sp.name.startswith("init:"))
    # the job relabels its input again before it launches
    stages.append(("scatter", init.ts - t - stages[-1][1]))
    stages.append(("greedy", init.dur))
    stages.append(("BFS and close", end - init.ts - init.dur))

    print(f"{'stage':<16} {'s':>7}")
    for name, s in stages:
        print(f"{name:<16} {s:7.3f}")
    print(f"{'total':<16} {sum(s for _, s in stages):7.3f}")
    print(f"peak RSS {resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024:.1f} MiB")
    return 0


if __name__ == "__main__":
    sys.exit(main())
