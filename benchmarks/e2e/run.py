#!/usr/bin/env python3
"""End-to-end benchmark of the repo's two distributed engines.

    python3 benchmarks/e2e/run.py                      # all four workloads
    python3 benchmarks/e2e/run.py --workload W --seed N --seconds S --trace 0|1
    python3 benchmarks/e2e/run.py --quick              # smoke, < 60 s
    python3 benchmarks/e2e/run.py --aa                 # suite twice, interleaved, compared
    python3 benchmarks/e2e/run.py --compare A.json B.json

One ``--workload`` run is one fresh process and one client in a closed
loop: build the input from the seed, solve the oracle, one untimed warm-up,
then back-to-back calibrated solves for ``--seconds``, then the set-up
children (fresh interpreters, exec to first solve).  Every solve is checked
outside its timed interval.  ``--trace 0`` reports the end-to-end metrics;
``--trace 1`` puts every second solve of the window inside one of the
benchmark's own spans, records a span around every per-layer measurement,
and writes the spans to ``benchmarks/e2e/out/trace-<workload>.json``.
Each metric is printed by name with its unit; the last line of stdout is
the result object.  See README.md beside this file.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import signal
import subprocess
import sys
from pathlib import Path
from typing import NoReturn

import spec
from timing import (
    Calibrated, Samples, Spans, adopt_orphans, high_percentile, iqr_frac, live_children, median,
    now, peak_rss_mib, steal_ticks, stop_children, stop_resource_tracker,
)

HERE = Path(__file__).resolve().parent
OUT_DIR = HERE / "out"
#: an even count: fresh memory-heavy processes alternate between two modes
#: here (1.55 / 1.78 s on mcm_bulk_t4), and the median of an even sample
#: sits between them whichever mode the odd one out would have drawn
SETUP_CHILDREN = 6
CHILD_TIMEOUT_S = 60.0


def fail(message: str) -> NoReturn:
    print(f"benchmarks/e2e: {message}", file=sys.stderr)
    sys.exit(2)


def load_program() -> None:
    """Make ``repro`` (and ``benchmarks.common``) importable from the tree
    this file sits in, and nothing else: refuse the environment knobs that
    would silently change what is measured, and an installed ``repro``."""
    knobs = [k for k in os.environ
             if k in ("REPRO_SPMD_BACKEND", "REPRO_JIT") or k.startswith("REPRO_BENCH_")]
    if knobs:
        fail(f"refusing to run with {', '.join(sorted(knobs))} set")
    src = spec.ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        fail(f"no program to measure: {src}/repro is missing")
    sys.path[:0] = [str(src), str(spec.ROOT)]
    import repro

    if Path(repro.__file__).resolve().parent != src / "repro":
        fail(f"imported repro from {repro.__file__}, not from {src}")


def environment() -> dict:
    import numpy
    from repro.kernels import kernel_backend

    return {
        "nproc": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "kernels": kernel_backend(),
        "loadavg": os.getloadavg()[0],
        "steal_ticks": steal_ticks(),
    }


# ---------------------------------------------------------------------------
# one workload, one process
# ---------------------------------------------------------------------------

def setup_child(name: str, seed: int) -> None:
    """What a ``repro spmd`` user pays per invocation: import, generate the
    input, one cold solve.  Prints when the solve ended, its digest (the
    parent checks it against its own verified first sample) and the peak
    resident set of this invocation."""
    load_program()
    from workloads import build, digest

    mate_r, mate_c, _ = build(name, seed).solve()
    print(json.dumps({"t_solved": now(), "digest": digest(mate_r, mate_c),
                      "peak_rss_mb": peak_rss_mib()}))


class Run:
    """State of one ``--workload`` run: the attempted/failed ledger and the
    digest and counts every later sample must reproduce."""

    def __init__(self, inst) -> None:
        self.inst = inst
        self.attempted = 0
        self.failures: list[str] = []
        self.first_digest = None
        self.first_counts = None
        self.stats = None
        #: peak RSS of each successful set-up child, MiB
        self.peaks: list[float] = []

    def failed(self, reason: str) -> None:
        self.failures.append(reason)
        print(f"FAILED  {reason}")

    def counts(self, stats) -> dict:
        """The exact per-rank counts of one solve and the model clock they
        price: alpha x steps + beta x words + gamma x edges, each / p."""
        from repro.perfmodel import EDISON

        p = self.inst.workload.p
        by_alg = (stats.comm_by_alg or {}).values()
        per_rank = {k: sum(d[k] for d in by_alg) / p for k in ("calls", "steps", "words")}
        return {
            "runtime.collective_calls": per_rank["calls"],
            "runtime.steps": per_rank["steps"],
            "runtime.words": per_rank["words"],
            "runtime.msgs": stats.comm_messages / p,
            "runtime.frames": stats.frames / p,
            "runtime.frame_words": stats.frame_words / p,
            "matching.phases": stats.phases,
            "matching.iterations": stats.iterations,
            "matching.edges_examined": stats.edges_examined,
            "matching.rounds": stats.auction_rounds,
            "matching.bids": stats.bids_placed,
            "matching.init_frac": (stats.initial_cardinality / stats.final_cardinality
                                   if stats.final_cardinality else 0.0),
            "model.alpha_s": EDISON.alpha * per_rank["steps"],
            "model.beta_s": EDISON.beta * per_rank["words"],
            "model.gamma_s": EDISON.gamma * stats.edges_examined / p,
        }

    def sample(self, clock: Calibrated, into: Samples, **solve_kwargs):
        """One attempted solve, timed on ``clock`` and checked after it; its
        timing joins ``into`` when it passes.  A solve that raises, times
        out, returns a wrong matching or differs from the first sample is a
        counted failure without a timing."""
        from workloads import digest

        self.attempted += 1
        # collect the previous solve's garbage outside the timed interval, so
        # every sample starts from the same heap (halves the sample spread
        # on mcm_bulk_t4: IQR 4.2 % -> 1.9 %)
        gc.collect()
        try:
            (mate_r, mate_c, stats), wall, calibrated = clock.time(
                lambda: self.inst.solve(**solve_kwargs))
        except Exception as exc:  # boundary: count the failure, keep measuring
            return self.failed(f"solve raised {type(exc).__name__}: {exc}")
        reason = self.inst.check(mate_r, mate_c)
        found, counts = digest(mate_r, mate_c), self.counts(stats)
        if reason is None and self.first_digest not in (None, found):
            reason = "mates differ from the first sample's"
        if reason is None and self.first_counts not in (None, counts):
            reason = "counts (hence model_s) differ from the first sample's"
        if reason is not None:
            return self.failed(reason)
        self.first_digest, self.first_counts, self.stats = found, counts, stats
        into.add(wall, calibrated)
        return stats

    def child(self, clock: Calibrated, into: Samples, name: str, seed: int) -> bool:
        """One set-up child: a fresh interpreter, exec to end of first solve."""
        self.attempted += 1
        shm_before = set(os.listdir("/dev/shm"))
        stolen0, t0 = steal_ticks(clock.cpus), now()
        # in a session of its own, so that whatever it starts can be found
        # and stopped with it
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "run.py"), "--setup-child", name, "--seed", str(seed)],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, start_new_session=True)
        try:
            out, err = proc.communicate(timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            out = err = None
        try:
            os.killpg(proc.pid, signal.SIGKILL)
            survivors = True
        except ProcessLookupError:
            survivors = False
        proc.communicate()  # reaps the child when it had to be killed
        if out is None:
            # killed with its resource tracker: its segments are ours to remove
            for segment in set(os.listdir("/dev/shm")) - shm_before:
                os.unlink(f"/dev/shm/{segment}")
            self.failed(f"set-up child exceeded {CHILD_TIMEOUT_S:.0f} s")
            return False
        if proc.returncode != 0:
            self.failed(f"set-up child exited {proc.returncode}: {err.strip()[-300:]}")
            return False
        if survivors:
            self.failed("set-up child left processes behind")
            return False
        report = json.loads(out.strip().splitlines()[-1])
        if report["digest"] != self.first_digest:
            self.failed("set-up child's mates differ from the first sample's")
            return False
        wall = report["t_solved"] - t0
        into.add(wall, clock.close(wall, steal_ticks(clock.cpus) - stolen0))
        self.peaks.append(report["peak_rss_mb"])
        return True


def wait_frac(trace) -> float:
    """Share of all ranks' time spent inside collective spans, from the
    program's own ``trace="wall"`` timeline (nested spans counted once)."""
    inside = total = 0.0
    for rank_spans in trace.spans:
        if not rank_spans:
            continue
        total += max(sp.t1 for sp in rank_spans) - min(sp.ts for sp in rank_spans)
        end = float("-inf")
        for sp in sorted((sp for sp in rank_spans if sp.cat == "comm"), key=lambda sp: sp.ts):
            inside += max(0.0, sp.t1 - max(end, sp.ts))
            end = max(end, sp.t1)
    return inside / total if total else 0.0


def run_workload(name: str, seed: int, seconds: float, trace: bool, quick: bool) -> dict:
    load_program()
    import layers
    from workloads import WORKLOADS, build

    if name not in WORKLOADS:
        fail(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")
    w = WORKLOADS[name]
    # thread ranks on one CPU: unpinned the 2x2 grid is slower (1.35 s
    # against 1.15 s) and draws 3-15 steal ticks a solve against 0-2; the
    # process ranks get every CPU, one each, as a user's would
    if w.backend == "thread":
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    env = environment()
    shm_before = set(os.listdir("/dev/shm"))
    spans = Spans()
    values: dict[str, float] = {}

    with spans.span("graphs.gen"):
        t0 = now()
        inst = build(name, seed)
        values["graphs.gen_s"] = now() - t0
    with spans.span("reference.solve"):
        values["reference.solve_s"] = inst.solve_oracle()
    run = Run(inst)
    clock = Calibrated(env["affinity"])
    if run.sample(clock, Samples()) is None:
        fail("the warm-up solve failed; nothing to measure")

    # -- the timed window: closed loop, one client.  A traced run puts every
    # second solve inside one of the benchmark's spans, so the traced and the
    # untraced solves share their seconds and the machine's mood
    window, traced, setup = Samples(), Samples(), Samples()
    steal0 = steal_ticks(clock.cpus)
    t_end = now() + seconds
    stats = None
    while True:
        run.sample(clock, window)
        if trace:
            with spans.span("solve"):
                # --quick: this one solve also runs under the program's tracer
                stats = run.sample(clock, traced, **({"trace": "wall"} if quick else {}))
        if (run.attempted >= 3) if quick else (now() >= t_end):
            break
    if not window.cal:
        fail("no solve of the window succeeded; nothing to measure")
    values["run.steal_ticks"] = steal_ticks(clock.cpus) - steal0

    # -- set-up children ------------------------------------------------------
    for _ in range(2 if trace else SETUP_CHILDREN):  # --quick implies trace
        if not run.child(clock, setup, name, seed):
            break
    if not setup.cal:
        fail("no set-up child succeeded; nothing to measure")

    counts = run.first_counts
    e2e = {
        "setup_s": median(setup.cal),
        # of one fresh invocation, not of this process: its heap carries the
        # allocator's history, and the same solve peaked at 275, 318 or 347
        # MiB from run to run, where fresh invocations repeat within 1 %
        "peak_rss_mb": median(run.peaks),
        "model_s": counts["model.alpha_s"] + counts["model.beta_s"] + counts["model.gamma_s"],
    }
    values.update(counts)
    values.update({
        "run.solve_s": median(window.cal),
        "run.samples": len(window.cal),
        "run.solve_raw_s": median(window.raw),
        "run.setup_raw_s": median(setup.raw),
        "run.calib_s": median(clock.calibs),
        "run.calib_drift_frac": (max(clock.calibs) - min(clock.calibs)) / median(clock.calibs),
        "run.solve_iqr_frac": iqr_frac(window.cal),
        "run.solve_hi_s": high_percentile(window.cal),
        "reference.ratio_x": median(window.raw) / values["reference.solve_s"],
    })

    # -- the rest of the traced run: one solve under the program's own tracer
    # for the wait share, then every layer
    if trace:
        if not quick:
            with spans.span("solve.program_trace"):
                stats = run.sample(clock, Samples(), trace="wall")
        if not traced.cal or stats is None:
            fail("a traced solve failed")
        values["run.trace_overhead_frac"] = median(traced.cal) / median(window.cal) - 1.0
        values["runtime.wait_frac"] = wait_frac(stats.trace)
        try:
            values.update(layers.measure(inst, spans, quick))
        except layers.LayerError as exc:
            fail(str(exc))
        by_alg = run.stats.comm_by_alg
        floor_s = sum(
            d["calls"] / w.p * 1e-6 * values[layers.FLOOR_OF.get(key.split(":")[0], "runtime.barrier_us")]
            for key, d in by_alg.items())
        values["run.floor_explained_frac"] = (
            floor_s + values["runtime.launch_s"] + values["distmat.scatter_s"]
        ) / values["run.solve_raw_s"]
        values["matching.grid_tax_x"] = values["run.solve_raw_s"] / values["matching.p1_solve_s"]
        values["matching.p1_tax_x"] = values["matching.p1_solve_s"] / values["matching.serial_solve_s"]
        if not quick:
            spans.dump(OUT_DIR / f"trace-{name}.json")

    # -- nothing may outlive the run (matters on the process backend): no shm
    # segment (looked for before the resource tracker ends, which would sweep
    # them) and, once that tracker is told to end, no child process at all
    run.attempted += 1
    leaked = sorted(set(os.listdir("/dev/shm")) - shm_before)
    stop_resource_tracker()
    orphans = live_children()
    if leaked or orphans:
        run.failed(f"left behind /dev/shm segments {leaked} and child processes {orphans}")
    values["run.fail_frac"] = len(run.failures) / run.attempted

    env_after = environment()
    env.update(loadavg_after=env_after["loadavg"], steal_ticks_after=env_after["steal_ticks"])
    metrics = {**e2e, **values}
    return {
        "workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
        "correct": not run.failures, "attempted": run.attempted, "failed": len(run.failures),
        "failures": run.failures, "env": env,
        "samples": {"solve_raw_s": window.raw, "solve_s": window.cal,
                    "setup_raw_s": setup.raw, "setup_s": setup.cal, "setup_peak_rss_mb": run.peaks,
                    "calib_s": clock.calibs},
        "metrics": {k: {"value": v, "unit": spec.UNITS[k]} for k, v in metrics.items()},
    }


def print_report(report: dict) -> None:
    """Every metric by name with its unit, then the environment."""
    print(f"== {report['workload']} seed={report['seed']} trace={report['trace']}")
    for key, m in report["metrics"].items():
        print(f"{key:40s} {m['value']:.9g} {m['unit']}")
    print(f"attempted={report['attempted']} failed={report['failed']} env={json.dumps(report['env'])}")


def result_object(reports: "list[dict]", names: "list[str]") -> dict:
    """The driver's result: exactly correct/attempted/failed/metrics.  With
    one workload the metric names are bare; the suite prefixes them."""
    metrics = {}
    for r in reports:
        prefix = "" if len(reports) == 1 else r["workload"] + "."
        for k in names:
            metrics[prefix + k] = r["metrics"][k]
    return {
        "correct": all(r["correct"] for r in reports),
        "attempted": sum(r["attempted"] for r in reports),
        "failed": sum(r["failed"] for r in reports),
        "metrics": metrics,
    }


def metric_names(trace: bool, quick: bool) -> "list[str]":
    layer = [n for n, _, _ in spec.PER_LAYER]
    if quick:
        return list(spec.E2E_UNITS) + layer
    return layer if trace else list(spec.E2E_UNITS)


# ---------------------------------------------------------------------------
# the suite: every workload in its own fresh process
# ---------------------------------------------------------------------------

def run_one(name: str, seed: int, seconds: float, trace: bool, quick: bool) -> dict:
    """One workload in a fresh process: echoes what it prints, returns its
    full report."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(int(trace)), "--emit-report"]
    proc = subprocess.run(cmd + (["--quick"] if quick else []), stdout=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        fail(f"workload {name} exited {proc.returncode}")
    lines = proc.stdout.splitlines()
    sys.stdout.write("\n".join(lines[:-2]) + "\n")
    return json.loads(lines[-2])


def compare(a: dict, b: dict) -> bool:
    """Per workload x end-to-end metric: both values, relative difference,
    bound, verdict.  True when everything is within its bound.  The warm
    solve time is shown beside them without a bound or a verdict."""
    ok = True
    print(f"{'workload':16s} {'metric':12s} {'A':>12s} {'B':>12s} {'B/A-1':>9s} {'bound':>6s}  verdict")
    for name in spec.WORKLOADS:
        for metric, bound in {**spec.BOUNDS, "run.solve_s": None}.items():
            va = a["workloads"][name]["metrics"][metric]["value"]
            vb = b["workloads"][name]["metrics"][metric]["value"]
            rel = vb / va - 1.0
            verdict = "not gated" if bound is None else "within" if abs(rel) <= bound else "outside"
            ok &= verdict != "outside"
            print(f"{name:16s} {metric:12s} {va:12.6g} {vb:12.6g} {rel:+9.4f} "
                  f"{'-' if bound is None else bound:>6}  {verdict}")
    return ok


def suite_document(reports: "list[dict]") -> dict:
    return {"workloads": {r["workload"]: r for r in reports}}


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", help="run one workload in this process (default: all, one process each)")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=spec.RUN_SECONDS)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--quick", action="store_true",
                    help="smoke: 3 solves (warm-up included), 2 set-up children, --trace 1, nothing written")
    ap.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    ap.add_argument("--aa", action="store_true",
                    help="run the suite twice on one seed, the two sides interleaved, and compare")
    ap.add_argument("--setup-child", metavar="WORKLOAD", help=argparse.SUPPRESS)
    ap.add_argument("--emit-report", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args()
    trace = bool(args.trace) or args.quick

    if args.setup_child:
        return setup_child(args.setup_child, args.seed)
    if args.compare:
        docs = [json.loads(Path(p).read_text()) for p in args.compare]
        sys.exit(0 if compare(*docs) else 1)
    if args.aa:
        load_program()
        # A and B of one workload back to back: the box's speed moves by the
        # half-hour, so two whole suites in a row would differ by its drift
        sides = {side: [] for side in "AB"}
        for name in spec.WORKLOADS:
            for side in "AB":
                sides[side].append(run_one(name, args.seed, args.seconds, False, False))
        OUT_DIR.mkdir(exist_ok=True)
        docs = [suite_document(reports) for reports in sides.values()]
        for side, doc in zip(sides, docs):
            (OUT_DIR / f"aa-{side}-seed{args.seed}.json").write_text(json.dumps(doc, indent=1) + "\n")
        failed = sum(r["failed"] for reports in sides.values() for r in reports)
        sys.exit(0 if compare(*docs) and not failed else 1)

    if args.workload:
        reports = [run_workload(args.workload, args.seed, args.seconds, trace, args.quick)]
        print_report(reports[0])
        if args.emit_report:
            print(json.dumps(reports[0]))
    else:
        load_program()  # fail here, not four times in the children
        reports = [run_one(name, args.seed, args.seconds, trace, args.quick) for name in spec.WORKLOADS]
    print(json.dumps(result_object(reports, metric_names(trace, args.quick))))
    if not args.workload and not all(r["correct"] for r in reports):
        sys.exit(1)


if __name__ == "__main__":
    adopt_orphans()
    # a polite kill is a path out like any other: leave through ``finally``
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    try:
        main()
    finally:
        # on every path out, a failure's too: the set-up child and the window
        # process each stop and wait for whatever they started
        stop_children()
