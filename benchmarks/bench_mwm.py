"""Machine-readable perf baseline for MWM-DIST, the auction engine.

Writes ``BENCH_mwm.json`` at the repo root: end-to-end weighted runs
(er:7 on 2×2, er:9 on 3×3) across the three weight distributions.
Recorded per cell (the ``engine`` leg):

* the objective — ``weight`` and ``cardinality`` are gated for EXACT
  equality against the committed baseline (the engine is deterministic:
  dyadic weights, Jacobi rounds, total tie-orders — any drift is a
  correctness bug, not noise);
* deterministic work/communication counters — ``rounds``, ``phases``,
  ``bids``, ``price_updates``, ``steps``, ``expand_words``,
  ``fold_words``, ``total_words``, ``comm_messages``, ``frames``,
  ``frame_words`` (all summed over ranks) — gated by the usual >10%
  regression rule;
* ``seconds_total`` for humans, excluded from all gates.

The file's top-level ``before`` block is not produced here: it holds the
same cells measured at the last commit whose round was five steps (two
grid-wide all-to-alls and an allreduce per round, and an ε-ladder that
ended at ε·scale/N), and is carried over on every rewrite.  ``--check``
requires today's ``rounds`` and ``bids`` to be no higher than there — the
ladder may end earlier, never later — and, wherever the Hungarian
optimum is recorded, ``weight >= (1 - ε) * hungarian_opt``.  Likewise
carried over, never produced:
``unaggregated_reference`` — the ``unaggregated`` leg (every schedule
walked, one frame per logical message) of the same cells, frozen at the
last commit that could still run it as an option; the physical plan now
follows communicator size (:mod:`repro.runtime.comm`).

Every run is cross-checked in-process before being written: the
distributed mates must be bit-identical to the serial auction twin, and
on the er:7 case the weight must reach ``(1 - ε)`` of the exact
Hungarian optimum.

Usage::

    PYTHONPATH=src python benchmarks/bench_mwm.py           # full, writes JSON
    PYTHONPATH=src python benchmarks/bench_mwm.py --quick   # er:7 only
    PYTHONPATH=src python benchmarks/bench_mwm.py --quick --check
        # compare against the committed JSON; exit 1 on any >10% counter
        # regression, ANY objective drift, more rounds/bids than the
        # ``before`` block or a weight under (1-ε)·Hungarian
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

import numpy as np

from repro.graphs.generators import WEIGHT_DISTS, edge_weights
from repro.graphs.rmat import er
from repro.matching.mwm_dist import run_mwm_dist
from repro.matching.reference import auction_mwm_serial, hungarian_mwm

REPO_ROOT = Path(__file__).resolve().parent.parent
MWM_JSON = "BENCH_mwm.json"

EPSILON = 0.05
TOLERANCE = 0.10

CASES = {
    "er7": {"scale": 7, "pr": 2, "pc": 2, "hungarian": True},
    "er9": {"scale": 9, "pr": 3, "pc": 3, "hungarian": False},
}

#: keys compared exactly (determinism gate), not by the >10% rule
EXACT_KEYS = ("weight", "cardinality", "phases")
#: keys of a ``before`` row that today's engine leg must not exceed
NOT_ABOVE_BEFORE_KEYS = ("rounds", "bids")


def run_case(scale: int, pr: int, pc: int, hungarian: bool) -> dict:
    coo = er(scale=scale, seed=1)
    out: dict = {"graph": f"er:{scale}", "grid": f"{pr}x{pc}", "epsilon": EPSILON}
    for dist in WEIGHT_DISTS:
        weights = edge_weights(coo, dist=dist, seed=7)
        mr_s, mc_s, info = auction_mwm_serial(
            coo.nrows, coo.ncols, coo.rows, coo.cols, weights, epsilon=EPSILON
        )
        t0 = time.perf_counter()
        mate_r, mate_c, stats = run_mwm_dist(coo, weights, pr, pc, epsilon=EPSILON)
        dt = time.perf_counter() - t0
        # the serial twin is the oracle: bit-identical or bust
        assert np.array_equal(mate_r, mr_s), f"{dist}: mate_r diverged"
        assert np.array_equal(mate_c, mc_s), f"{dist}: mate_c diverged"
        assert stats.matching_weight == info["weight"], f"{dist}: weight diverged"
        cell: dict = {"engine": {
            "weight": stats.matching_weight,
            "cardinality": stats.final_cardinality,
            "phases": stats.phases,
            "rounds": stats.auction_rounds,
            "bids": stats.bids_placed,
            "price_updates": stats.price_updates,
            "steps": sum(d["steps"] for d in stats.comm_by_alg.values()),
            "expand_words": stats.expand_words,
            "fold_words": stats.fold_words,
            "total_words": stats.total_words,
            "comm_messages": stats.comm_messages,
            "frames": stats.frames,
            "frame_words": stats.frame_words,
            "seconds_total": round(dt, 4),
        }}
        print(f"  {out['graph']} {dist:<10} "
              f"weight {stats.matching_weight:>10.4f}  "
              f"rounds {stats.auction_rounds:>4}  "
              f"steps {cell['engine']['steps']:>7,}  "
              f"words {stats.total_words:>9,}  ({dt:.2f}s)")
        if hungarian:
            _, _, opt = hungarian_mwm(
                coo.nrows, coo.ncols, coo.rows, coo.cols, weights
            )
            assert info["weight"] >= (1.0 - EPSILON) * opt - 1e-9, \
                f"{dist}: weight {info['weight']} < (1-eps) * {opt}"
            cell["hungarian_opt"] = opt
            cell["optimality_ratio"] = round(info["weight"] / opt, 6) if opt else 1.0
        out[dist] = cell
    return out


# ---------------------------------------------------------------------------
# regression checks
# ---------------------------------------------------------------------------


def _compare(path: str, current, committed, problems: list) -> None:
    if isinstance(committed, dict):
        if not isinstance(current, dict):
            return
        for key, base in committed.items():
            if key.startswith("seconds"):
                continue
            if key in current:
                _compare(f"{path}/{key}", current[key], base, problems)
        return
    leaf = path.rsplit("/", 1)[-1]
    if leaf in EXACT_KEYS or leaf in ("hungarian_opt", "optimality_ratio"):
        if current != committed:
            problems.append(f"{path}: {committed!r} -> {current!r} (must be exact)")
        return
    if isinstance(committed, bool) or not isinstance(committed, (int, float)):
        if current != committed:
            problems.append(f"{path}: {committed!r} -> {current!r}")
        return
    if isinstance(current, (int, float)) and current > committed * (1 + TOLERANCE):
        problems.append(
            f"{path}: {committed} -> {current} "
            f"(+{100 * (current / committed - 1):.1f}% > {100 * TOLERANCE:.0f}%)"
        )


def check_against_committed(current: dict, root: Path) -> list:
    baseline_path = root / MWM_JSON
    if not baseline_path.exists():
        return [f"{MWM_JSON}: committed baseline missing at {baseline_path}"]
    problems: list = []
    committed = json.loads(baseline_path.read_text())
    _compare(MWM_JSON, current, committed, problems)
    for name, dists in committed.get("before", {}).get("runs", {}).items():
        for dist, row in dists.items():
            now = current["runs"].get(name, {}).get(dist, {}).get("engine")
            if now is None:  # --quick skips er:9
                continue
            for key in NOT_ABOVE_BEFORE_KEYS:
                if now[key] > row[key]:
                    problems.append(
                        f"{MWM_JSON}/before/{name}/{dist}/{key}: {row[key]!r} -> "
                        f"{now[key]!r} (the ladder must not run longer than before)"
                    )
    for name, run in current["runs"].items():
        for dist in WEIGHT_DISTS:
            cell = run[dist]
            if "hungarian_opt" in cell and (
                cell["engine"]["weight"] < (1.0 - EPSILON) * cell["hungarian_opt"] - 1e-9
            ):
                problems.append(
                    f"{MWM_JSON}/runs/{name}/{dist}/engine/weight: "
                    f"{cell['engine']['weight']!r} < (1-eps) * {cell['hungarian_opt']!r}"
                )
    return problems


# ---------------------------------------------------------------------------
# driver
# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--quick", action="store_true",
                    help="skip the er:9 case (CI smoke mode)")
    ap.add_argument("--check", action="store_true",
                    help="compare against the committed JSON instead of "
                         "overwriting it; exit 1 on regression")
    ap.add_argument("--out-dir", default=str(REPO_ROOT), metavar="DIR",
                    help="where to write/read BENCH_mwm.json")
    args = ap.parse_args(argv)
    root = Path(args.out_dir)

    runs: dict = {}
    for name, case in CASES.items():
        if args.quick and name == "er9":
            continue
        print(f"MWM-DIST {case['scale']=} grid {case['pr']}x{case['pc']}...")
        runs[name] = run_case(**case)
    doc = {"epsilon": EPSILON, "runs": runs}

    if args.check:
        problems = check_against_committed(doc, root)
        if problems:
            print(f"\nPERF REGRESSION vs committed baseline (>{100 * TOLERANCE:.0f}%"
                  f" on counters, any drift on objectives):")
            for p in problems:
                print(f"  {p}")
            return 1
        print("\nno perf regression vs committed baseline")
        return 0

    path = root / MWM_JSON
    if path.exists():
        # keep what this run did not produce: the ``before`` and
        # ``unaggregated_reference`` blocks always, and in quick mode the
        # er:9 cells of the committed full baseline
        old = json.loads(path.read_text())
        doc = {**old, **doc, "runs": {**old["runs"], **runs}}
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
