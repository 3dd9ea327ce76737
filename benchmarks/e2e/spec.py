"""The one table behind ``BENCHMARK.json``: workloads, end-to-end metrics
(with their regression bounds) and per-layer metrics.

``python3 benchmarks/e2e/spec.py --write`` regenerates the root
``BENCHMARK.json`` from it; ``selftest.py`` asserts the two agree.  Later
issues cite these workload and metric names verbatim — renaming one is a
benchmark change, not a refactor.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
BENCH_DIR = "benchmarks/e2e"

COMMAND = ["python3", f"{BENCH_DIR}/run.py"]
#: length of the timed solve window of one ``--trace 0`` run.  The driver's
#: 92 runs must fit 3420 s, 37 s a run; beside the window a run generates the
#: input, solves the oracle, warms up and runs six set-up children (2-3 s
#: each), 14-21 s in all when the box is slow.  With a 12 s window single
#: runs took 34.5 s (mcm_bulk_t4) and 37.3 s (mcm_deep_p2, 6.6 s of it
#: stolen) in the worst hour so far, so the window gives up two more seconds:
#: it feeds only ungated metrics, the set-up children feed the gated one.
RUN_SECONDS = 10

#: name -> why it exists (one line; also the ``why`` of BENCHMARK.json)
WORKLOADS = {
    "mcm_bulk_t4": "er(15) 1M-edge MCM on a 2x2 thread grid: fat blocks, ~400 collectives; kernels and distmat packing do the work",
    "mcm_deep_t4": "road_usa stand-in MCM on a 2x2 thread grid: 408 thin-frontier iterations, ~2700 collectives; the runtime floor does the work",
    "mcm_deep_p2": "the same road graph on a 1x2 process grid, one vCPU per rank: fork, shm rings, codec and doorbell instead of mailboxes, non-square grid",
    "mwm_auction_t4": "er(7) weighted auction on a 2x2 thread grid: 654 Jacobi rounds x ~6 float collectives, no RMA; the round diet must move it",
}

#: (name, unit, better, bound) -- ``bound`` is both the share of the
#: parent's median a later PR may lose and the A/A agreement limit.  The
#: model clock is exact, so it carries the tight bound: a count that moves by
#: more than 0.1 % is caught whatever the machine is doing.  ``setup_s`` is
#: the one gated wall clock and carries the contract's maximum; the warm
#: ``run.solve_s`` is a per-layer metric without a bound, because no protocol
#: tried on this box repeats it within ISSUE 12's 0.08 (README.md, "How
#: steady").
END_TO_END = [
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MiB", "lower", 0.05),
    ("model_s", "model-s", "lower", 0.001),
]

#: (name, unit, better); the prefix before the first dot is the layer
#: (a ``src/repro/`` package, or ``run``/``model``/``reference``).
PER_LAYER = [
    ("graphs.gen_s", "s", "lower"),
    ("sparse.build_s", "s", "lower"),
    ("sparse.spmv_ns_per_edge", "ns", "lower"),
    ("sparse.reduce_ns_per_cand", "ns", "lower"),
    ("kernels.ragged_gather_ns_per_edge", "ns", "lower"),
    ("kernels.keyed_min_scatter_ns_per_key", "ns", "lower"),
    ("kernels.pull_candidates_ns_per_edge", "ns", "lower"),
    ("kernels.is_numba", "count", "higher"),
    ("distmat.scatter_s", "s", "lower"),
    ("distmat.spmv_full_s", "s", "lower"),
    ("distmat.route_ns_per_word", "ns", "lower"),
    ("distmat.spmv_thin_us", "us", "lower"),
    ("distmat.route_us", "us", "lower"),
    ("distmat.invert_route_us", "us", "lower"),
    ("runtime.launch_s", "s", "lower"),
    ("runtime.barrier_us", "us", "lower"),
    ("runtime.allreduce_us", "us", "lower"),
    ("runtime.allgather_us", "us", "lower"),
    ("runtime.alltoall_us", "us", "lower"),
    ("runtime.rma_fetch_op_us", "us", "lower"),
    ("runtime.alltoall_ns_per_word", "ns", "lower"),
    ("runtime.pack_ns_per_word", "ns", "lower"),
    ("runtime.codec_small_us", "us", "lower"),
    ("runtime.codec_ns_per_word", "ns", "lower"),
    ("runtime.collective_calls", "count", "lower"),
    ("runtime.steps", "count", "lower"),
    ("runtime.msgs", "count", "lower"),
    ("runtime.words", "count", "lower"),
    ("runtime.frames", "count", "lower"),
    ("runtime.frame_words", "count", "lower"),
    ("runtime.wait_frac", "frac", "lower"),
    ("matching.phases", "count", "lower"),
    ("matching.iterations", "count", "lower"),
    ("matching.edges_examined", "count", "lower"),
    ("matching.rounds", "count", "lower"),
    ("matching.bids", "count", "lower"),
    ("matching.init_frac", "frac", "higher"),
    ("matching.p1_solve_s", "s", "lower"),
    ("matching.grid_tax_x", "x", "lower"),
    ("matching.serial_solve_s", "s", "lower"),
    ("matching.p1_tax_x", "x", "lower"),
    ("matching.top2_ns_per_edge", "ns", "lower"),
    ("reference.solve_s", "s", "lower"),
    ("reference.ratio_x", "x", "lower"),
    ("simulate.record_s", "s", "lower"),
    ("simulate.price_s", "s", "lower"),
    ("model.alpha_s", "model-s", "lower"),
    ("model.beta_s", "model-s", "lower"),
    ("model.gamma_s", "model-s", "lower"),
    ("run.solve_s", "s", "lower"),
    ("run.samples", "count", "higher"),
    ("run.solve_raw_s", "s", "lower"),
    ("run.setup_raw_s", "s", "lower"),
    ("run.calib_s", "s", "lower"),
    ("run.calib_drift_frac", "frac", "lower"),
    ("run.solve_iqr_frac", "frac", "lower"),
    ("run.solve_hi_s", "s", "lower"),
    ("run.steal_ticks", "count", "lower"),
    ("run.fail_frac", "frac", "lower"),
    ("run.trace_overhead_frac", "frac", "lower"),
    ("run.floor_explained_frac", "frac", "higher"),
]

E2E_UNITS = {name: unit for name, unit, _, _ in END_TO_END}
BOUNDS = {name: bound for name, _, _, bound in END_TO_END}
UNITS = {**E2E_UNITS, **{name: unit for name, unit, _ in PER_LAYER}}


def benchmark_json() -> dict:
    """The exact content of the root ``BENCHMARK.json``."""
    return {
        "command": COMMAND,
        "paths": [BENCH_DIR],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": w} for n, w in WORKLOADS.items()],
        "end_to_end": [
            {"name": n, "unit": u, "better": b, "bound": bd}
            for n, u, b, bd in END_TO_END
        ],
        "per_layer": [{"name": n, "unit": u, "better": b} for n, u, b in PER_LAYER],
    }


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: spec.py --write   (regenerates BENCHMARK.json)")
    (ROOT / "BENCHMARK.json").write_text(json.dumps(benchmark_json(), indent=2) + "\n")
