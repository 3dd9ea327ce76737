"""Sweep: where MCM-DIST hands its thin end to the replicated serial tail,
and what the hand-off saves on the priced clock (DESIGN §17 "The serial
tail").

One cell is one input on one pr × pc thread grid.  The inputs are the seven
Table II stand-ins whose hand-off ROADMAP item 19 tracks, built with
``suite.load_scaled(name, target_nnz, seed=1)``, and the uniform graphs
``er`` 7 and 9 (the ``BENCH_spmd.json`` inputs), 10 and 12 (seed 1); the
grids are 2x2, 3x3 and 4x4.  A cell reports:

* ``handoff`` — the phase whose BFS the shipped rule
  (``job.tail_is_cheaper``, asked once per phase before augmenting) hands
  off after, 0 if it never does, and the job's phases;
* the priced per-rank total (``DistStats.price``, DESIGN §5) under the
  shipped rule, with no hand-off, and the best in hindsight: the cheapest
  of no hand-off and every forced one (after phase k's BFS, k = 1 …
  phases−1), with that k (0: no hand-off);
* ``shipped/best`` — the shipped total over the best: what the rule
  leaves on the table;
* with ``--baseline REV`` (a git revision of this repository), the
  shipped rule's total under that revision's engine.

Every run's cardinality must equal Hopcroft-Karp's.  ``--check`` exits 1
when one does not, or when the shipped rule prices above no hand-off in
some cell.

Usage::

    PYTHONPATH=src python benchmarks/bench_tail_handoff.py       # results/tail_handoff.txt
    PYTHONPATH=src python benchmarks/bench_tail_handoff.py --baseline HEAD~1
    PYTHONPATH=src python benchmarks/bench_tail_handoff.py --target-nnz 5000 --grids 2 \
        --check --out -                                           # the CI smoke
"""

from __future__ import annotations

import argparse
import io
import json
import os
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from handoff_seam import handoff_rule  # noqa: E402

from repro.graphs import suite  # noqa: E402
from repro.graphs.rmat import er  # noqa: E402
from repro.matching.hopcroft_karp import hopcroft_karp  # noqa: E402
from repro.matching.mcm_dist import run_mcm_dist  # noqa: E402
from repro.matching.validate import cardinality  # noqa: E402
from repro.sparse.csc import CSC  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
RESULTS = ROOT / "benchmarks" / "results" / "tail_handoff.txt"
STAND_INS = ("road_usa", "europe_osm", "hugetrace-00020", "amazon-2008",
             "kron_g500-logn21", "cage15", "nlpkkt200")
ER_SCALES = (7, 9, 10, 12)


def inputs(target_nnz: int):
    """(name, matrix) of every swept input."""
    for name in STAND_INS:
        yield name, suite.load_scaled(name, target_nnz=target_nnz, seed=1)[0]
    for scale in ER_SCALES:
        yield f"er{scale}", er(scale, seed=1)


def _solve(coo, g: int, rule=None):
    """One thread-backend run on a g × g grid; ``rule`` replaces the
    hand-off rule (called with the phase the calling rank is in)."""
    if rule is None:
        return run_mcm_dist(coo, g, g, backend="thread", timeout=120)
    with handoff_rule(rule):
        return run_mcm_dist(coo, g, g, backend="thread", timeout=120)


def priced_runs(target_nnz: int, grids, shipped_only: bool = False) -> dict:
    """``{"name gxg": cell}`` over the sweep (``shipped_only``: the shipped
    rule's priced total alone, what a baseline tree is asked for)."""
    cells = {}
    for name, coo in inputs(target_nnz):
        optimum = None if shipped_only else cardinality(hopcroft_karp(CSC.from_coo(coo))[0])
        for g in grids:
            mate_r, _, st = _solve(coo, g)
            cell = {"priced": st.price(g * g).total}
            cells[f"{name} {g}x{g}"] = cell
            if shipped_only:
                continue
            runs = {None: (mate_r, st), 0: _solve(coo, g, lambda phase: False)[::2]}
            for k in range(1, st.phases):
                runs[k] = _solve(coo, g, lambda phase, k=k: phase == k)[::2]
            forced = {k: r[1].price(g * g).total for k, r in runs.items() if k is not None}
            best = min(forced, key=forced.get)
            cell.update(
                phases=st.phases, handoff=st.phases - st.tail_phases if st.tail_phases else 0,
                no_handoff=forced[0], best_k=best, best=forced[best],
                exact=all(cardinality(r[0]) == optimum for r in runs.values()),
            )
    return cells


def baseline_totals(rev: str, target_nnz: int, grids) -> dict:
    """The shipped rule's totals under revision ``rev``'s engine: this
    script rerun with that revision's ``src/`` on the path."""
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", rev, "src"],
                             check=True, capture_output=True).stdout
    with tempfile.TemporaryDirectory() as tree:
        tarfile.open(fileobj=io.BytesIO(archive)).extractall(tree)
        out = subprocess.run(
            [sys.executable, __file__, "--target-nnz", str(target_nnz), "--grids",
             ",".join(map(str, grids)), "--shipped-only"],
            env={**os.environ, "PYTHONPATH": str(Path(tree) / "src")},
            check=True, capture_output=True, text=True).stdout
    return {k: v["priced"] for k, v in json.loads(out.splitlines()[-1]).items()}


def table(cells: dict, baseline: "dict | None", command: str) -> str:
    lines = [f"# {command}",
             "# priced per-rank model-s (DistStats.price); handoff = the phase whose BFS",
             "# the shipped rule hands off after (0: never); best = the cheapest of no",
             "# hand-off and every forced one, after phase best_k's BFS (0: none);",
             "# shipped/best = what the rule leaves on the table"
             + ("; baseline = the --baseline revision's engine" if baseline else ""),
             f"{'cell':<24} {'phases':>6} {'handoff':>7} {'shipped':>11} "
             f"{'no_handoff':>11} {'best':>11} {'best_k':>6} {'shipped/best':>12}"
             + (f" {'baseline':>11}" if baseline else "") + "  exact"]
    for key, c in cells.items():
        lines.append(
            f"{key:<24} {c['phases']:>6} {c['handoff']:>7} {c['priced']:>11.4e} "
            f"{c['no_handoff']:>11.4e} {c['best']:>11.4e} {c['best_k']:>6} "
            f"{c['priced'] / c['best']:>12.3f}"
            + (f" {baseline[key]:>11.4e}" if baseline else "") + f"  {c['exact']}")
    return "\n".join(lines) + "\n"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--target-nnz", type=int, default=50_000)
    ap.add_argument("--grids", default="2,3,4", help="grid sides, comma-separated")
    ap.add_argument("--baseline", metavar="REV", help="a git revision to price beside")
    ap.add_argument("--out", default=str(RESULTS), help="results file ('-': stdout only)")
    ap.add_argument("--check", action="store_true")
    ap.add_argument("--shipped-only", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    grids = [int(g) for g in args.grids.split(",")]
    cells = priced_runs(args.target_nnz, grids, args.shipped_only)
    if args.shipped_only:
        print(json.dumps(cells))
        return 0
    baseline = args.baseline and baseline_totals(args.baseline, args.target_nnz, grids)
    command = "PYTHONPATH=src python benchmarks/bench_tail_handoff.py " + " ".join(
        sys.argv[1:] if argv is None else argv)
    text = table(cells, baseline, command.strip())
    print(text, end="")
    if args.out != "-":
        Path(args.out).write_text(text)
    bad = [k for k, c in cells.items() if not c["exact"] or c["priced"] > c["no_handoff"]]
    if args.check and bad:
        print(f"cells worse than no hand-off or off Hopcroft-Karp's cardinality: {bad}")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
