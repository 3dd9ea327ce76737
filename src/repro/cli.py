"""Command-line interface: ``python -m repro <command>``.

Commands
--------

``match``
    Compute a maximum matching of a MatrixMarket file or a generated graph
    with the serial engine (Algorithm 2, top-down Step 1) and print
    statistics (optionally writing the mate vectors out).

``suite``
    List the Table II stand-in suite with paper-vs-stand-in statistics.

``scaling``
    Record one execution on an input and print the strong-scaling table of
    model times across core counts (the Fig. 4/6 workflow).

``spmd``
    Run the true SPMD MCM-DIST on a simulated process grid and report
    per-rank communication statistics.  ``--direction auto`` (default) lets
    each block pull Step 1 bottom-up where that reads fewer edges;
    ``--verify`` arms the dynamic correctness verifiers
    (collective-divergence and RMA-race detection).

``trace-report``
    Critical-path analysis of a trace recorded with ``spmd --trace``:
    dominant span per phase, per-rank wait fractions, skew, restarts.

``lint``
    Statically analyze Python sources for SPMD correctness hazards:
    collectives under rank-divergent control flow, RMA accesses outside
    fence epochs, unseeded per-rank randomness, order- and clock-dependent
    results, payloads and entry points a process backend cannot pickle.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np


def _load_input(args) -> "object":
    from .graphs import rmat, suite as suite_mod
    from .sparse import mmio

    sources = [bool(args.mtx), bool(args.rmat), bool(args.suite)]
    if sum(sources) != 1:
        raise SystemExit("choose exactly one input: --mtx FILE | --rmat CLASS:SCALE | --suite NAME")
    if args.mtx:
        return mmio.read_mm(args.mtx)
    if args.rmat:
        kind, _, scale = args.rmat.partition(":")
        gen = {"g500": rmat.g500, "er": rmat.er, "ssca": rmat.ssca}.get(kind.lower())
        if gen is None or not scale.isdigit():
            raise SystemExit(f"--rmat expects g500:N, er:N or ssca:N, got {args.rmat!r}")
        return gen(scale=int(scale), seed=args.seed)
    coo, _red = suite_mod.load_scaled(args.suite, target_nnz=args.target_nnz, seed=args.seed)
    return coo


def _add_input_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--mtx", help="MatrixMarket file")
    p.add_argument("--rmat", help="RMAT generator, e.g. g500:12")
    p.add_argument("--suite", help="Table II stand-in name, e.g. road_usa")
    p.add_argument("--target-nnz", type=int, default=60_000, help="suite stand-in size")
    p.add_argument("--seed", type=int, default=0)


def cmd_match(args) -> int:
    from . import CSC, maximum_matching, verify_maximum
    from .sparse import mmio

    coo = _load_input(args)
    mate_r, mate_c, stats = maximum_matching(
        coo, init=args.init if args.init != "none" else None,
        prune=not args.no_prune, seed=args.seed,
    )
    print(f"graph      : {coo.nrows:,} x {coo.ncols:,}, {coo.nnz:,} nonzeros")
    print(f"initializer: {args.init} -> {stats.initial_cardinality:,}")
    print(f"maximum    : {stats.final_cardinality:,}")
    print(f"phases     : {stats.phases}   iterations: {stats.iterations}")
    print(f"edges      : {stats.edges_traversed:,} traversed, "
          f"{stats.total_paths:,} augmenting paths")
    if args.certify:
        ok = verify_maximum(CSC.from_coo(coo), mate_r, mate_c)
        print(f"certificate: {'VERIFIED maximum (König)' if ok else 'FAILED'}")
        if not ok:
            return 1
    if args.out:
        np.savez(args.out, mate_r=mate_r, mate_c=mate_c)
        print(f"mate vectors written to {args.out}")
    return 0


def cmd_suite(args) -> int:
    from .graphs import suite as suite_mod

    print(f"{'name':<20} {'class':<28} {'paper rows':>12} {'paper nnz':>12}")
    for name in sorted(suite_mod.SUITE):
        e = suite_mod.SUITE[name]
        print(f"{name:<20} {e.kind:<28} {e.paper_rows:>12,} {e.paper_nnz:>12,}")
    return 0


def cmd_scaling(args) -> int:
    from .simulate import price, record, scaled_machine
    from .simulate.report import breakdown_table, speedup_table

    cores = [int(c) for c in args.cores.split(",")]
    if min(cores) < args.threads:
        raise SystemExit(f"--cores {min(cores)} is below --threads {args.threads}: "
                         "a process needs one core per thread")
    coo = _load_input(args)
    trace = record(coo, init=args.init if args.init != "none" else None,
                   prune=not args.no_prune)
    machine = scaled_machine(args.alpha_scale)
    results = [price(trace, c, args.threads, machine) for c in cores]
    print(speedup_table(results, f"{coo.nrows:,}x{coo.ncols:,} nnz={coo.nnz:,}"))
    if args.breakdown:
        print()
        print(breakdown_table(results))
    return 0


def cmd_spmd(args) -> int:
    from .matching.mcm_dist import run_mcm_dist

    if args.scenario is not None:
        from .matching.scenarios import resolve_scenario, run_scenario

        try:
            scenario = resolve_scenario(args.scenario, args.scenario_requests)
        except ValueError as exc:
            print(exc)
            return 2
        report = run_scenario(scenario, backend=args.backend)
        import json

        if args.stats_json:
            with open(args.stats_json, "w") as fh:
                json.dump(report, fh, indent=2, sort_keys=True)
                fh.write("\n")
            print(f"SLO report written to {args.stats_json}")
        print(json.dumps(report, indent=2, sort_keys=True))
        return 0

    coo = _load_input(args)
    trace = args.trace_clock if args.trace else False
    weighted = args.objective == "weight"
    run_kwargs = dict(
        timeout=args.timeout, verify=args.verify, trace=trace,
        backend=args.backend,
    )
    plan = None
    if args.chaos is not None:
        from .runtime import FaultPlan, FileCheckpointStore

        plan = FaultPlan.parse(args.chaos_plan, seed=args.chaos)
        store = FileCheckpointStore(args.checkpoint_dir) if args.checkpoint_dir else None
        run_kwargs.update(
            faults=plan, checkpoint_every=args.checkpoint_every,
            checkpoint_store=store, max_restarts=args.max_restarts,
        )
    if weighted:
        from .graphs.generators import edge_weights
        from .matching.mwm_dist import run_mwm_dist

        weights = edge_weights(coo, dist=args.weights, seed=args.seed,
                               bound=args.weight_bound)
        mate_r, mate_c, stats = run_mwm_dist(
            coo, weights, args.pr, args.pc,
            epsilon=args.epsilon, cardinality_bias=args.cardinality_bias,
            **run_kwargs,
        )
    else:
        mate_r, mate_c, stats = run_mcm_dist(
            coo, args.pr, args.pc,
            init=args.init, direction=args.direction, **run_kwargs,
        )
    if plan is not None:
        print(f"chaos seed {args.chaos}, plan [{plan.describe()}]: "
              f"{stats.restarts} restart(s), {stats.phases_replayed} phase(s) "
              f"replayed, {stats.checkpoint_words:,} checkpoint words")
    card = int((mate_r != -1).sum())
    if weighted:
        print(f"grid {args.pr}x{args.pc}: matched {card:,} pairs, weight "
              f"{stats.matching_weight:.6g} (scale {stats.weight_scale:.6g}, "
              f"epsilon {stats.epsilon}), {stats.phases} epsilon-phase(s), "
              f"{stats.auction_rounds} auction round(s)")
        print(f"auction    : {stats.bids_placed:,} bids, "
              f"{stats.price_updates:,} price updates, words "
              f"expand/fold/total = {stats.expand_words:,}/{stats.fold_words:,}/"
              f"{stats.ledger()[1]:,}")
        print(f"certified W/(D/2) = {stats.certified_ratio:.6f} ≥ 1−ε = "
              f"{1.0 - stats.epsilon:.6g} (dual bound D = {stats.dual_bound:.6g})")
    else:
        print(f"grid {args.pr}x{args.pc}: matched {card:,} "
              f"(init {stats.initial_cardinality:,}), {stats.phases} phases, "
              f"{stats.iterations} iterations, augment level/path = "
              f"{stats.augment_level_calls}/{stats.augment_path_calls}")
        print(f"direction {args.direction}: top-down/bottom-up block-iterations = "
              f"{stats.topdown_steps}/{stats.bottomup_steps}, "
              f"{stats.edges_examined:,} edges examined, words "
              f"expand/fold/total = {stats.expand_words:,}/{stats.fold_words:,}/"
              f"{stats.ledger()[1]:,}")
    price = stats.price(args.pr * args.pc)
    print(f"priced per rank: {price.total:.7g} model-s = alpha {price.alpha_s:.4g} + "
          f"beta {price.beta_s:.4g} + gamma {price.gamma_s:.4g} + rma {price.rma_s:.4g}")
    if stats.tail_phases:
        rounds = f" ({stats.tail_rounds} auction round(s))" if weighted else ""
        print(f"serial tail: the last {stats.tail_phases} phase(s){rounds} on every rank, "
              f"{stats.tail_edges:,} edges examined on each")
    if args.verify:
        vs = stats.verify_summary or {}
        print(f"verification: PASSED — {vs.get('collectives_checked', 0):,} "
              f"collective entries cross-checked, "
              f"{vs.get('rma_ops_checked', 0):,} one-sided accesses "
              f"race-checked, no divergence or races")
    if args.trace:
        stats.trace.dump(args.trace)
        print(f"trace written to {args.trace} "
              f"({stats.trace.nspans:,} spans, {stats.trace.nranks} rank(s); "
              f"load it in Perfetto / chrome://tracing, or run "
              f"'repro trace-report {args.trace}')")
    if args.stats_json:
        import dataclasses
        import json

        def _jsonable(x):
            if isinstance(x, np.integer):
                return int(x)
            if isinstance(x, np.floating):
                return float(x)
            if isinstance(x, np.ndarray):
                return x.tolist()
            raise TypeError(f"not JSON-serializable: {type(x).__name__}")

        payload = dataclasses.asdict(stats)
        payload["cardinality"] = card
        payload["grid"] = {"pr": args.pr, "pc": args.pc}
        payload["objective"] = args.objective
        payload["price"] = {**price._asdict(), "total_s": price.total}
        with open(args.stats_json, "w") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True, default=_jsonable)
            fh.write("\n")
        print(f"stats written to {args.stats_json}")
    return 0


def cmd_trace_report(args) -> int:
    from .runtime.trace import DistTrace
    from .simulate.critpath import analyze, format_report

    rep = analyze(DistTrace.load(args.file), top=args.top)
    if args.format == "json":
        import json

        print(json.dumps(rep, indent=2, sort_keys=True))
    else:
        print(format_report(rep))
    return 0


def cmd_lint(args) -> int:
    from .analysis import run_lint

    return run_lint(args.paths, exclude=args.exclude, fmt=args.format,
                    baseline=args.baseline,
                    write_baseline_to=args.write_baseline,
                    output=args.output)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Distributed-memory maximum cardinality matching (IPDPS'16 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("match", help="compute a maximum matching")
    _add_input_args(p)
    p.add_argument("--init", default="mindegree",
                   choices=["greedy", "karp-sipser", "mindegree", "none"])
    p.add_argument("--no-prune", action="store_true")
    p.add_argument("--certify", action="store_true", help="verify the König certificate")
    p.add_argument("--out", help="write mate vectors to an .npz file")
    p.set_defaults(fn=cmd_match)

    p = sub.add_parser("suite", help="list the Table II stand-in suite")
    p.set_defaults(fn=cmd_suite)

    p = sub.add_parser("scaling", help="strong-scaling study (model times)")
    _add_input_args(p)
    p.add_argument("--init", default="mindegree",
                   choices=["greedy", "karp-sipser", "mindegree", "none"])
    p.add_argument("--no-prune", action="store_true")
    p.add_argument("--cores", default="24,48,108,432,972,2028")
    p.add_argument("--threads", type=int, default=12)
    p.add_argument("--alpha-scale", type=float, default=1000.0,
                   help="latency reduction matching the input's scale-down")
    p.add_argument("--breakdown", action="store_true")
    p.set_defaults(fn=cmd_scaling)

    p = sub.add_parser(
        "spmd",
        help="run MCM-DIST (or MWM-DIST with --objective weight) on a "
             "simulated process grid",
    )
    _add_input_args(p)
    p.add_argument("--pr", type=int, default=2)
    p.add_argument("--pc", type=int, default=2)
    p.add_argument("--init", default="greedy", choices=["greedy", "none"])
    p.add_argument("--direction", default="auto", choices=["auto", "topdown"],
                   help="Step 1's direction: 'auto' lets each block, and each "
                        "iteration of the serial tail, pull wherever that is "
                        "expected to read fewer of its edges")
    p.add_argument("--objective", default="cardinality",
                   choices=["cardinality", "weight"],
                   help="'cardinality' runs MCM-DIST (default); 'weight' runs "
                        "the epsilon-scaled distributed auction (MWM-DIST) "
                        "over generated edge weights")
    p.add_argument("--epsilon", type=float, default=0.05,
                   help="auction optimality slack: the matching weight is "
                        ">= (1-epsilon) * optimum (objective=weight only)")
    p.add_argument("--weights", default="uniform",
                   choices=["uniform", "skewed", "intbounded"],
                   help="edge-weight distribution, hashed deterministically "
                        "from (edge, --seed) (objective=weight only)")
    p.add_argument("--weight-bound", type=int, default=16, metavar="B",
                   help="integer bound for --weights intbounded")
    p.add_argument("--cardinality-bias", type=float, default=0.0, metavar="BIAS",
                   help="shift real edges by BIAS*scale against staying "
                        "unmatched; >= 1 chases cardinality at equal weight")
    p.add_argument("--backend", default=None, choices=["thread", "process"],
                   help="transport: 'thread' simulates ranks as threads in "
                        "one interpreter (default), 'process' forks one OS "
                        "process per rank with shared-memory rings "
                        "(default: $REPRO_SPMD_BACKEND or thread)")
    p.add_argument("--verify", action="store_true",
                   help="arm the dynamic verifiers: cross-check every collective "
                        "entry across ranks and race-check every RMA access")
    p.add_argument("--timeout", type=float, default=None, metavar="SECONDS",
                   help="deadlock window for blocking runtime calls "
                        "(default: $REPRO_SPMD_TIMEOUT or 120)")
    p.add_argument("--chaos", type=int, default=None, metavar="SEED",
                   help="arm seeded fault injection and checkpointed recovery; "
                        "the seed makes the injected fault sequence reproducible")
    p.add_argument("--chaos-plan", default="crash:rank=any,at=phase:every",
                   metavar="PLAN",
                   help="fault plan: ';'-separated crash:rank=R|group=G,"
                        "at=KIND:N / transient:p=P / delay:p=P clauses "
                        "(see DESIGN.md §9); stragglers and degraded links "
                        "are priced by --scenario, not injected")
    p.add_argument("--scenario", default=None, metavar="NAME",
                   help="replay a named adversity scenario (baseline, "
                        "straggler, degraded-links, correlated-crash, "
                        "disrupted) and print its SLO report instead of a "
                        "single run; ignores the input-graph flags")
    p.add_argument("--scenario-requests", type=int, default=None, metavar="N",
                   help="override the scenario's request-stream length")
    p.add_argument("--checkpoint-every", type=int, default=1, metavar="N",
                   help="snapshot the matching every N completed phases")
    p.add_argument("--max-restarts", type=int, default=8, metavar="M",
                   help="give up after M fabric rebuilds")
    p.add_argument("--checkpoint-dir", default=None, metavar="DIR",
                   help="persist checkpoints as .npz files here (default: a store "
                        "that lasts as long as the job)")
    p.add_argument("--stats-json", default=None, metavar="PATH",
                   help="dump the run's DistStats (phases, word counters, "
                        "per-algorithm collective counters, one-sided RMA "
                        "counters, recovery counters) as JSON")
    p.add_argument("--trace", default=None, metavar="PATH",
                   help="record per-rank spans and write a Chrome trace-event "
                        "JSON (open in Perfetto, or feed to 'repro trace-report')")
    p.add_argument("--trace-clock", default="wall", choices=["wall", "ticks"],
                   help="trace timestamp source: wall time, or deterministic "
                        "per-rank event ticks (byte-identical across runs)")
    p.set_defaults(fn=cmd_spmd)

    p = sub.add_parser("trace-report",
                       help="critical-path analysis of a recorded trace")
    p.add_argument("file", help="Chrome trace-event JSON from 'spmd --trace'")
    p.add_argument("--top", type=int, default=5,
                   help="spans to list per ranking (default 5)")
    p.add_argument("--format", default="text", choices=["text", "json"])
    p.set_defaults(fn=cmd_trace_report)

    p = sub.add_parser("lint", help="static SPMD correctness analysis")
    p.add_argument("paths", nargs="+", help=".py files or directory trees")
    p.add_argument("--exclude", action="append", default=[], metavar="PATH",
                   help="file or directory to skip (repeatable)")
    p.add_argument("--format", default="text", choices=["text", "json"])
    p.add_argument("--baseline", metavar="FILE",
                   help="JSON baseline of tolerated findings "
                        "(matched by path/code/function, not line)")
    p.add_argument("--write-baseline", metavar="FILE", dest="write_baseline",
                   help="record the current findings as a new baseline and exit 0")
    p.add_argument("--output", metavar="FILE",
                   help="write the report to FILE instead of stdout")
    p.set_defaults(fn=cmd_lint)
    return parser


def main(argv: "list[str] | None" = None) -> int:
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
