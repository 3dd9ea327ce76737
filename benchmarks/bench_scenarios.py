"""Machine-readable SLO baseline for the adversity scenario suite.

One artifact, committed at the repo root so CI can diff against it:

* ``BENCH_scenarios.json`` — one SLO block per named scenario in
  :data:`repro.matching.scenarios.SCENARIOS` (baseline, straggler,
  degraded-links, correlated-crash, disrupted): p50/p99 model-time
  latency of the seeded request stream, recovery time after correlated
  kills, checkpoint overhead, restart counts, and the logical
  message/word totals.

Every gated number is *model time* or a logical counter — a pure
function of the scenario seed, bit-for-bit reproducible across runs and
across the thread/process backends.  The ``seconds_wall`` fields are the
only wall-clock values and are excluded from the regression check (the
``seconds`` prefix is what :func:`bench_collectives._compare` skips).

Usage::

    PYTHONPATH=src python benchmarks/bench_scenarios.py            # full, writes JSON
    PYTHONPATH=src python benchmarks/bench_scenarios.py --quick    # 3-request streams
    PYTHONPATH=src python benchmarks/bench_scenarios.py --quick --check
        # compare against the committed JSON; exit 1 on any >10%
        # regression (higher latency/recovery/restarts/words than committed)

The file's top-level ``before`` block is not produced here: it holds the
scenarios' SLO rows measured at the last commit whose BFS iteration was the
paper's schedule (keyed ``<block>/<scenario>``), and is carried over on
every rewrite; a run whose cardinality differs from it, or whose logical
message total exceeds it, is refused.

``--quick --check`` re-measures the scenarios with 3-request streams and
compares them against the committed quick block, so the CI smoke is both
fast and exact (model time does not get noisier when the stream shrinks —
it is deterministic at every length).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from bench_collectives import (  # noqa: E402
    TOLERANCE, check_against_before, check_against_committed,
)

from repro.matching.scenarios import SCENARIOS, run_scenario  # noqa: E402

REPO_ROOT = Path(__file__).resolve().parent.parent
SCENARIOS_JSON = "BENCH_scenarios.json"

#: request-stream length of the quick (CI smoke) block
QUICK_REQUESTS = 3


def run_suite(requests: "int | None") -> dict:
    """Run every named scenario; return name -> SLO report."""
    out: dict = {}
    for name in SCENARIOS:
        print(f"scenario {name}...")
        rep = run_scenario(name, requests=requests)
        out[name] = rep
        print(
            f"  p50 {rep['p50_model_ms']:.3f} ms, p99 {rep['p99_model_ms']:.3f} ms, "
            f"recovery {rep['recovery_model_ms']:.3f} ms, "
            f"{rep['restarts']} restart(s), "
            f"checkpoint overhead {rep['checkpoint_overhead_pct']:.2f}% "
            f"({rep['seconds_wall']:.2f}s wall)"
        )
    return out


def assert_acceptance(suite: dict) -> None:
    """The scenario suite's structural invariants, asserted on fresh numbers."""
    required = {"baseline", "straggler", "degraded-links", "correlated-crash"}
    missing = required - set(suite)
    assert not missing, f"required scenarios missing: {sorted(missing)}"
    base = suite["baseline"]
    assert base["restarts"] == 0, "baseline scenario restarted"
    assert base["recovery_model_ms"] == 0.0, "baseline scenario recovered"
    for name in ("straggler", "degraded-links"):
        assert suite[name]["p50_model_ms"] > base["p50_model_ms"], (
            f"{name} p50 ({suite[name]['p50_model_ms']}) not above the "
            f"baseline ({base['p50_model_ms']}) — adversity priced at zero?"
        )
    crash = suite["correlated-crash"]
    assert crash["restarts"] > 0, "correlated-crash scenario never restarted"
    assert crash["recovery_model_ms"] > 0.0, (
        "correlated-crash recovery time is zero despite restarts"
    )
    print("  acceptance: baseline clean, adversity priced, crashes recovered")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--quick", action="store_true",
                    help=f"run {QUICK_REQUESTS}-request streams (CI smoke mode)")
    ap.add_argument("--check", action="store_true",
                    help="compare against the committed JSON instead of "
                         "overwriting it; exit 1 on regression")
    ap.add_argument("--out-dir", default=str(REPO_ROOT), metavar="DIR",
                    help="where to write/read BENCH_scenarios.json")
    args = ap.parse_args(argv)
    root = Path(args.out_dir)
    block = "quick" if args.quick else "full"

    suite = run_suite(QUICK_REQUESTS if args.quick else None)
    print("acceptance criteria:")
    assert_acceptance(suite)
    doc = {
        "meta": {
            "note": "model-time SLOs of the seeded adversity scenarios; "
                    "deterministic across runs and backends, seconds_* "
                    "fields excluded from the regression gate",
            "quick_requests": QUICK_REQUESTS,
        },
        block: suite,
    }

    before_problems = check_against_before(
        SCENARIOS_JSON,
        {f"{block}/{name}": rep for name, rep in suite.items()},
        root,
    )
    if before_problems:
        print("\nthe run contradicts the committed ``before`` block:")
        for p in before_problems:
            print(f"  {p}")
        return 1

    if args.check:
        committed_path = root / SCENARIOS_JSON
        if committed_path.exists():
            committed = json.loads(committed_path.read_text())
            if block not in committed:
                print(f"{SCENARIOS_JSON} has no {block!r} block; run without "
                      f"--check first to record it")
                return 1
        problems = check_against_committed(
            SCENARIOS_JSON, {"meta": doc["meta"], block: doc[block]}, root
        )
        if problems:
            print(f"\nSLO REGRESSION vs committed baseline (>{100 * TOLERANCE:.0f}%):")
            for p in problems:
                print(f"  {p}")
            return 1
        print("\nno SLO regression vs committed baseline")
        return 0

    path = root / SCENARIOS_JSON
    if path.exists():
        # never truncate the other block: merge this measurement over it
        doc_old = json.loads(path.read_text())
        doc_old["meta"] = doc["meta"]
        doc_old[block] = doc[block]
        doc = doc_old
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
