"""Fig. 8: impact of pruning vertices from augmenting-path-yielding trees.

Paper content: percentage runtime reduction from enabling Step 6's PRUNE on
1024 cores, per matrix — 10% to 65% for all but two matrices, because
pruning eliminates the useless continued expansion of trees that already
found their augmenting path.  Shape to reproduce: pruning reduces both the
traversed-edge count and the model runtime on the clear majority of the
suite, and never changes the computed cardinality.
"""

from repro.graphs import suite
from repro.simulate import price, record

from .common import FAST, TARGET_NNZ, emit, machine_for, suite_input

CORES, THREADS = 972, 12
GRAPHS = suite.REPRESENTATIVE if FAST else sorted(suite.SUITE)


def run_experiment():
    rows = []
    for name in GRAPHS:
        coo, _ = suite_input(name)
        R = suite.SUITE[name].paper_nnz / coo.nnz
        m = machine_for(R)
        t_on = record(coo, prune=True)
        t_off = record(coo, prune=False)
        r_on = price(t_on, CORES, THREADS, m)
        r_off = price(t_off, CORES, THREADS, m)
        rows.append({
            "name": name,
            "on_s": r_on.seconds,
            "off_s": r_off.seconds,
            "reduction_pct": 100.0 * (1 - r_on.seconds / r_off.seconds),
            "edges_on": t_on.stats.edges_traversed,
            "edges_off": t_off.stats.edges_traversed,
            "card_equal": t_on.cardinality == t_off.cardinality,
        })
    return rows


def format_table(rows) -> str:
    lines = [f"# pytest benchmarks/bench_fig8_pruning.py (target nnz {TARGET_NNZ:,})",
             f"# pruning impact at {CORES} cores",
             f"{'matrix':<20} {'prune on (s)':>13} {'prune off (s)':>14} {'time saved':>11} {'edges saved':>12}"]
    for r in rows:
        edge_save = 100.0 * (1 - r["edges_on"] / max(1, r["edges_off"]))
        lines.append(
            f"{r['name']:<20} {r['on_s']:>13.3e} {r['off_s']:>14.3e} "
            f"{r['reduction_pct']:>10.1f}% {edge_save:>11.1f}%"
        )
    return "\n".join(lines)


def test_fig8_pruning_impact(benchmark):
    rows = benchmark.pedantic(run_experiment, rounds=1, iterations=1)
    emit("fig8_pruning", format_table(rows))

    assert all(r["card_equal"] for r in rows), "pruning must not change the MCM"
    # pruning never increases the traversed edges
    assert all(r["edges_on"] <= r["edges_off"] for r in rows)
    # ... and reduces model runtime on the clear majority (paper: all but two)
    helped = sum(1 for r in rows if r["reduction_pct"] > 0.0)
    assert helped >= len(rows) - 2, f"pruning helped only {helped}/{len(rows)}"
