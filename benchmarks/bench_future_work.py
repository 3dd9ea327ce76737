"""Ablation: the paper's stated future-work features, implemented.

Section VII: "Future work includes implementing the tree grafting technique
together with the bottom-up BFS in distributed memory."  Both are built on
this reproduction's matrix-algebra substrate; this bench quantifies what
they buy on the reproduction's inputs:

* **tree grafting** (MS-BFS-Graft): reuse the alternating forest across
  phases — measured as traversed-edge savings vs rebuild-every-phase
  Algorithm 2, largest on skewed (G500-like) inputs;
* **direction-optimized BFS**: MCM-DIST's per-block choice of Step 1's
  direction (``direction="auto"``: a block pulls bottom-up wherever the
  early-exit pull is expected to read fewer edges) — measured as examined-
  edge savings over ``direction="topdown"`` when frontiers are wide (from
  an empty matching), on one rank and on a 2x2 grid.
"""

import numpy as np
import pytest

from repro.graphs import rmat, suite
from repro.matching import greedy_maximal, ms_bfs_graft, ms_bfs_mcm
from repro.matching.mcm_dist import run_mcm_dist
from repro.sparse import CSC

from .common import FAST, emit

SCALE = 11 if FAST else 13


def run_graft_study():
    rows = []
    for name, coo in [
        (f"g500-{SCALE}", rmat.g500(scale=SCALE, seed=4)),
        (f"ssca-{SCALE}", rmat.ssca(scale=SCALE, seed=4)),
        (f"er-{SCALE - 1}", rmat.er(scale=SCALE - 1, seed=4)),
    ]:
        a = CSC.from_coo(coo)
        ir, ic = greedy_maximal(a)
        _, _, plain = ms_bfs_mcm(a, ir, ic)
        _, _, graft = ms_bfs_graft(a, ir, ic)
        assert plain.final_cardinality == graft.final_cardinality
        rows.append({
            "graph": name,
            "plain_edges": plain.edges_traversed,
            "graft_edges": graft.edges_traversed,
            "plain_phases": plain.phases,
            "graft_phases": graft.phases,
        })
    return rows


def test_tree_grafting_ablation(benchmark):
    rows = benchmark.pedantic(run_graft_study, rounds=1, iterations=1)
    lines = [f"# pytest benchmarks/bench_future_work.py::test_tree_grafting_ablation (scale {SCALE})",
             f"{'graph':<12} {'MS-BFS edges':>13} {'Graft edges':>12} {'saved':>7} {'phases':>10}"]
    for r in rows:
        saved = 1 - r["graft_edges"] / r["plain_edges"]
        lines.append(
            f"{r['graph']:<12} {r['plain_edges']:>13,} {r['graft_edges']:>12,} "
            f"{saved:>6.1%} {r['plain_phases']:>4}->{r['graft_phases']}"
        )
    emit("future_work_graft", "\n".join(lines))
    # grafting must pay on the skewed G500 input (the [7] result)
    g500 = rows[0]
    assert g500["graft_edges"] < g500["plain_edges"]


def _command_line(test: str, scale: int) -> str:
    """The results file's first line: the command that wrote it, at what
    scale."""
    fast = "REPRO_BENCH_FAST=1 " if FAST else ""
    return (f"# {fast}pytest benchmarks/bench_future_work.py::{test} "
            f"(scale {scale})")


def run_direction_study():
    rows = []
    for name, coo in [
        (f"er-{SCALE}", rmat.er(scale=SCALE, seed=8)),
        (f"g500-{SCALE}", rmat.g500(scale=SCALE, seed=8)),
    ]:
        # from the EMPTY matching the first frontiers cover every column —
        # the regime direction optimization targets; one rank, so the
        # counts are the pull rule's alone, not the grid's
        td_r, _, td = run_mcm_dist(coo, 1, 1, init="none", direction="topdown")
        au_r, _, auto = run_mcm_dist(coo, 1, 1, init="none", direction="auto")
        assert np.array_equal(td_r, au_r)  # bit-identical matchings
        rows.append({
            "graph": name,
            "topdown_edges": td.edges_examined,
            "auto_edges": auto.edges_examined,
        })
    return rows


def test_direction_optimization_ablation(benchmark):
    rows = benchmark.pedantic(run_direction_study, rounds=1, iterations=1)
    lines = [
        _command_line("test_direction_optimization_ablation", SCALE),
        f"{'graph':<12} {'top-down edges':>15} {'auto edges':>12} {'saved':>7}",
    ]
    for r in rows:
        saved = 1 - r["auto_edges"] / r["topdown_edges"]
        lines.append(
            f"{r['graph']:<12} {r['topdown_edges']:>15,} {r['auto_edges']:>12,} {saved:>6.1%}"
        )
    emit("future_work_direction", "\n".join(lines))
    # auto must not lose by more than a small overhead anywhere, and must
    # win on at least one input
    for r in rows:
        assert r["auto_edges"] <= 1.15 * r["topdown_edges"]
    assert any(r["auto_edges"] < r["topdown_edges"] for r in rows)


DIST_SCALE = 8 if FAST else 9


def run_direction_study_dist():
    """The tentpole measurement: direction optimization inside the TRUE SPMD
    path, with the simulated runtime's per-communicator word counters."""
    graphs = [(f"er-{DIST_SCALE}", rmat.er(scale=DIST_SCALE, seed=8))]
    if not FAST:
        graphs.append((f"g500-{DIST_SCALE}", rmat.g500(scale=DIST_SCALE, seed=8)))
    rows = []
    for name, coo in graphs:
        # empty initial matching -> every column on the first frontier, the
        # regime where bottom-up pays; 2x2 grid keeps the smoke run cheap
        td_r, _, td = run_mcm_dist(coo, 2, 2, init="none", direction="topdown")
        au_r, _, au = run_mcm_dist(coo, 2, 2, init="none", direction="auto")
        assert np.array_equal(td_r, au_r)  # bit-identical matchings
        rows.append({
            "graph": name,
            "td_edges": td.edges_examined, "au_edges": au.edges_examined,
            "td_fold": td.fold_words, "au_fold": au.fold_words,
            "td_expand": td.expand_words, "au_expand": au.expand_words,
            # block-iterations: each block chooses its own direction
            "bu_steps": au.bottomup_steps, "steps": au.topdown_steps + au.bottomup_steps,
        })
    return rows


def test_direction_optimization_dist(benchmark):
    rows = benchmark.pedantic(run_direction_study_dist, rounds=1, iterations=1)
    lines = [
        _command_line("test_direction_optimization_dist", DIST_SCALE),
        f"{'graph':<10} {'td edges':>10} {'auto edges':>10} {'saved':>7} "
        f"{'td fold':>9} {'auto fold':>9} {'td expand':>9} {'auto expand':>11} {'bu blocks':>9}"
    ]
    for r in rows:
        saved = 1 - r["au_edges"] / r["td_edges"]
        lines.append(
            f"{r['graph']:<10} {r['td_edges']:>10,} {r['au_edges']:>10,} {saved:>6.1%} "
            f"{r['td_fold']:>9,} {r['au_fold']:>9,} {r['td_expand']:>9,} "
            f"{r['au_expand']:>11,} {r['bu_steps']:>4}/{r['steps']}"
        )
    emit("future_work_direction_dist", "\n".join(lines))
    for r in rows:
        # the switch never examines more edges than pure top-down, and both
        # directions send the same candidates, so the fold is the same
        assert r["au_edges"] <= r["td_edges"]
        assert r["au_fold"] == r["td_fold"]
    # and on the ER input it strictly wins on examined edges
    er = rows[0]
    assert er["bu_steps"] > 0
    assert er["au_edges"] < er["td_edges"]
