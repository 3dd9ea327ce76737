"""Machine-readable perf baseline for MWM-DIST, the auction engine.

Writes ``BENCH_mwm.json`` at the repo root: end-to-end weighted runs
(er:7 on 2×2, er:9 on 3×3) across the three weight distributions, and
three inputs off the i.i.d.-weight ER family, one weighting each: the
``road_usa`` stand-in with skewed weights (2×2), ``g500:9`` power-law with
uniform weights and er:9 with Machol–Wien-style integer weights
``(i+1)·(j+1) mod 64`` (3×3).  Recorded per cell (the ``engine`` leg):

* the objective — ``weight`` and ``cardinality`` are gated for EXACT
  equality against the committed baseline (the engine is deterministic:
  dyadic weights, Jacobi rounds, total tie-orders — any drift is a
  correctness bug, not noise) — and the run's ``certified_ratio``
  W/(D/2) from its own dual bound D;
* deterministic work/communication counters — ``rounds``, ``phases``,
  ``bids``, ``price_updates``, ``steps``, ``expand_words``,
  ``fold_words``, ``total_words``, ``comm_messages``, ``frames``,
  ``frame_words`` (all summed over ranks) — and ``priced_s``, the run's
  price per rank (``DistStats.price``, DESIGN §5: α·steps, β·words,
  γ·edges read, each over p) — gated by the usual >10% regression rule —
  and ``no_handoff_priced_s``, the same run's price with every round on
  the grid (``handoff_seam.no_handoff``): ``--check`` fails a cell whose
  hand-off prices above it;
* ``seconds_total`` for humans, excluded from all gates.

The file's top-level ``before`` block is not produced here: it holds the
er:7 / er:9 cells measured at the last commit whose round was five steps
(two grid-wide all-to-alls and an allreduce per round, and an ε-ladder
that ended at ε·scale/N), and the other three inputs' cells measured on
the a-priori ladder that ended at ε·max(scale, L)/N; it is carried over on
every rewrite.  ``--check`` requires today's ``rounds`` and ``bids`` to be
no higher than there — the ladder may end earlier, never later — and
every cell to be certified (``certified_ratio >= 1 - ε``) and, wherever an
optimum is recorded (``hungarian_opt``: the repo's own O(n³) solver;
``scipy_opt``: ``scipy.optimize.linear_sum_assignment``, which shares no
code with the engines), ``weight >= (1 - ε) * OPT``.  Likewise
carried over, never produced:
``unaggregated_reference`` — the ``unaggregated`` leg (every schedule
walked, one frame per logical message) of the same cells, frozen at the
last commit that could still run it as an option; the physical plan now
follows communicator size (:mod:`repro.runtime.comm`).

Every run is cross-checked in-process before being written: the
distributed mates, weight and certificate must be bit-identical to the
serial auction twin, and wherever an optimum is computed the weight must
reach ``(1 - ε)`` of it.

Usage::

    PYTHONPATH=src python benchmarks/bench_mwm.py           # full, writes JSON
    PYTHONPATH=src python benchmarks/bench_mwm.py --quick   # the 2×2 inputs only
    PYTHONPATH=src python benchmarks/bench_mwm.py --quick --check
        # compare against the committed JSON; exit 1 on any >10% counter
        # regression, ANY objective drift, more rounds/bids than the
        # ``before`` block, an uncertified cell or a weight under (1-ε)·OPT
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

import numpy as np
from scipy.optimize import linear_sum_assignment

sys.path.insert(0, str(Path(__file__).resolve().parent))

from handoff_seam import no_handoff  # noqa: E402

from repro.graphs import suite  # noqa: E402
from repro.graphs.generators import WEIGHT_DISTS, edge_weights  # noqa: E402
from repro.graphs.rmat import er, g500  # noqa: E402
from repro.matching.mwm_dist import run_mwm_dist  # noqa: E402
from repro.matching.reference import auction_mwm_serial, hungarian_mwm  # noqa: E402

REPO_ROOT = Path(__file__).resolve().parent.parent
MWM_JSON = "BENCH_mwm.json"

EPSILON = 0.05
TOLERANCE = 0.10

#: name -> (graph label, input maker, grid, weightings, optimum oracle);
#: ``--quick`` runs the 2×2 cases
CASES = {
    "er7": ("er:7", lambda: er(7, seed=1), (2, 2), WEIGHT_DISTS, "hungarian"),
    "er9": ("er:9", lambda: er(9, seed=1), (3, 3), WEIGHT_DISTS, None),
    "road": ("road_usa/5000",
             lambda: suite.load_scaled("road_usa", target_nnz=5000, seed=1)[0],
             (2, 2), ("skewed",), "scipy"),
    "g500_9": ("g500:9", lambda: g500(9, seed=1), (3, 3), ("uniform",), "scipy"),
    "er9_mw": ("er:9", lambda: er(9, seed=1), (3, 3), ("machol_wien",), "scipy"),
}

#: keys compared exactly (determinism gate), not by the >10% rule
EXACT_KEYS = ("weight", "certified_ratio", "cardinality", "phases")
#: keys of a ``before`` row that today's engine leg must not exceed
NOT_ABOVE_BEFORE_KEYS = ("rounds", "bids")


def _weights(coo, dist: str) -> np.ndarray:
    if dist == "machol_wien":  # small integers, dense ties: a hard assignment family
        return (((coo.rows + 1) * (coo.cols + 1)) % 64).astype(np.float64)
    return edge_weights(coo, dist=dist, seed=7)


def _scipy_opt(coo, weights: np.ndarray) -> float:
    """MWM weight by ``scipy.optimize.linear_sum_assignment`` on the dense
    benefit matrix (non-edges and non-positive weights are worth 0)."""
    benefit = np.zeros((coo.nrows, coo.ncols))
    np.maximum.at(benefit, (coo.rows, coo.cols), np.maximum(weights, 0.0))
    r, c = linear_sum_assignment(benefit, maximize=True)
    return float(benefit[r, c].sum())


def run_case(graph: str, build, grid: tuple, dists: tuple, oracle: "str | None") -> dict:
    coo = build()
    pr, pc = grid
    out: dict = {"graph": graph, "grid": f"{pr}x{pc}", "epsilon": EPSILON}
    for dist in dists:
        weights = _weights(coo, dist)
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
        assert stats.certified_ratio == info["certified_ratio"], f"{dist}: ratio diverged"
        cell: dict = {"engine": {
            "weight": stats.matching_weight,
            "certified_ratio": stats.certified_ratio,
            "cardinality": stats.final_cardinality,
            "phases": stats.phases,
            "rounds": stats.auction_rounds,
            "bids": stats.bids_placed,
            "price_updates": stats.price_updates,
            "steps": stats.ledger()[0],
            "expand_words": stats.expand_words,
            "fold_words": stats.fold_words,
            "total_words": stats.ledger()[1],
            "comm_messages": stats.comm_messages,
            "frames": stats.frames,
            "frame_words": stats.frame_words,
            "priced_s": round(stats.price(pr * pc).total, 9),
            "seconds_total": round(dt, 4),
        }}
        with no_handoff():
            grid_only = run_mwm_dist(coo, weights, pr, pc, epsilon=EPSILON)[2]
        cell["engine"]["no_handoff_priced_s"] = round(grid_only.price(pr * pc).total, 9)
        print(f"  {out['graph']} {dist:<10} "
              f"weight {stats.matching_weight:>10.4f}  "
              f"rounds {stats.auction_rounds:>4}  "
              f"certified {stats.certified_ratio:.4f}  "
              f"steps {cell['engine']['steps']:>7,}  "
              f"words {cell['engine']['total_words']:>9,}  ({dt:.2f}s)")
        if oracle is not None:
            opt = (_scipy_opt(coo, weights) if oracle == "scipy" else
                   hungarian_mwm(coo.nrows, coo.ncols, coo.rows, coo.cols, weights)[2])
            assert info["weight"] >= (1.0 - EPSILON) * opt - 1e-9, \
                f"{dist}: weight {info['weight']} < (1-eps) * {opt}"
            cell[f"{oracle}_opt"] = opt
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
    if leaf in EXACT_KEYS or leaf.endswith("_opt") or leaf == "optimality_ratio":
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
            if now is None:  # --quick skips the 3×3 cases
                continue
            for key in NOT_ABOVE_BEFORE_KEYS:
                if now[key] > row[key]:
                    problems.append(
                        f"{MWM_JSON}/before/{name}/{dist}/{key}: {row[key]!r} -> "
                        f"{now[key]!r} (the ladder must not run longer than before)"
                    )
    for name, run in current["runs"].items():
        for dist in CASES[name][3]:
            engine = run[dist]["engine"]
            path = f"{MWM_JSON}/runs/{name}/{dist}/engine"
            if engine["priced_s"] > engine["no_handoff_priced_s"]:
                problems.append(f"{path}/priced_s: {engine['priced_s']!r} > "
                                f"no_handoff_priced_s {engine['no_handoff_priced_s']!r}")
            if engine["certified_ratio"] < 1.0 - EPSILON:
                problems.append(f"{path}/certified_ratio: {engine['certified_ratio']!r} < 1-eps")
            opt = run[dist].get("hungarian_opt", run[dist].get("scipy_opt"))
            if opt is not None and engine["weight"] < (1.0 - EPSILON) * opt - 1e-9:
                problems.append(f"{path}/weight: {engine['weight']!r} < (1-eps) * {opt!r}")
    return problems


# ---------------------------------------------------------------------------
# driver
# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--quick", action="store_true",
                    help="run the 2x2 cases only (CI smoke mode)")
    ap.add_argument("--check", action="store_true",
                    help="compare against the committed JSON instead of "
                         "overwriting it; exit 1 on regression")
    ap.add_argument("--out-dir", default=str(REPO_ROOT), metavar="DIR",
                    help="where to write/read BENCH_mwm.json")
    args = ap.parse_args(argv)
    root = Path(args.out_dir)

    runs: dict = {}
    for name, case in CASES.items():
        if args.quick and case[2] != (2, 2):
            continue
        print(f"MWM-DIST {name}: {case[0]} grid {case[2][0]}x{case[2][1]}...")
        runs[name] = run_case(*case)
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
        # 3×3 cells of the committed full baseline
        old = json.loads(path.read_text())
        doc = {**old, **doc, "runs": {**old["runs"], **runs}}
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
