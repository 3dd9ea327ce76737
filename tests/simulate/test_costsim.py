"""Execution-driven performance simulation: recording, pricing, invariants."""

import numpy as np
import pytest

from repro.graphs import generators as G, rmat, suite
from repro.perfmodel import EDISON, Category
from repro.simulate import (
    gather_scatter_time,
    price,
    record,
    scaled_machine,
    simulate_mcm,
    sweep,
)
from repro.simulate.report import (
    CSV_FIELDS,
    breakdown_table,
    results_to_rows,
    speedup_table,
    write_csv,
)
from repro.sparse import COO, CSC


@pytest.fixture(scope="module")
def g500_trace():
    return record(rmat.g500(scale=9, seed=1))


def test_record_produces_correct_matching(g500_trace):
    """The trace's embedded matching must be the true optimum — the
    simulator runs the REAL algorithm, not an approximation of it."""
    from tests.matching.conftest import scipy_optimum

    t = g500_trace
    assert t.cardinality > 0
    assert t.stats.final_cardinality == t.cardinality
    assert len(t.events) > 0
    kinds = {k for k, _ in t.events}
    assert {"spmv", "select_set", "iteration_end", "phase_end"} <= kinds
    assert {"init_explore", "init_round_end"} <= kinds


def test_record_unknown_init():
    with pytest.raises(ValueError, match="unknown init"):
        record(rmat.er(scale=6), init="quantum")


def test_record_without_init_has_no_init_events():
    t = record(rmat.er(scale=7, seed=2), init=None)
    assert not any(k.startswith("init") for k, _ in t.events)


def test_price_monotone_categories(g500_trace):
    r = price(g500_trace, 192, 12)
    assert r.seconds > 0
    assert r.grid.pr == r.grid.pc == 4
    # all major categories charged
    for cat in (Category.SPMV, Category.INVERT, Category.SELECT_SET, Category.INIT):
        assert r.breakdown.seconds(cat) > 0
    # total is the sum of categories
    assert r.seconds == pytest.approx(r.breakdown.total)


def test_same_trace_prices_deterministically(g500_trace):
    a = price(g500_trace, 432, 12)
    b = price(g500_trace, 432, 12)
    assert a.seconds == b.seconds


def test_compute_shrinks_with_cores(g500_trace):
    """Per-rank compute must drop as the grid grows (work is partitioned)."""
    small = price(g500_trace, 48, 12)
    large = price(g500_trace, 1200, 12)
    assert large.breakdown.total_compute < small.breakdown.total_compute


def test_invert_share_grows_with_cores(g500_trace):
    """The paper's Fig. 5 observation: INVERT's relative weight rises with
    concurrency while SpMV's falls."""
    m = scaled_machine(1000)
    small = price(g500_trace, 48, 12, m)
    large = price(g500_trace, 2028, 12, m)
    assert large.breakdown.fraction(Category.INVERT) > small.breakdown.fraction(Category.INVERT)
    # ... and grows faster than SpMV: the INVERT/SpMV ratio must rise
    ratio_small = small.breakdown.seconds(Category.INVERT) / small.breakdown.seconds(Category.SPMV)
    ratio_large = large.breakdown.seconds(Category.INVERT) / large.breakdown.seconds(Category.SPMV)
    assert ratio_large > ratio_small


def test_pairwise_alltoall_costs_more_than_bruck_at_scale(g500_trace):
    """The worst-case (paper analysis) collectives must be costlier than the
    small-message algorithms at high process counts."""
    bruck = price(g500_trace, 2028, 12, alltoall="bruck", allgather="doubling")
    pairwise = price(g500_trace, 2028, 12, alltoall="pairwise", allgather="ring")
    assert pairwise.seconds > bruck.seconds


def test_hybrid_beats_flat_mpi(g500_trace):
    """Fig. 7: at equal cores, 12 threads/process beats flat MPI because the
    process grid (and hence every latency term) shrinks."""
    m = scaled_machine(1000)
    flat = price(g500_trace, 1728, 1, m)
    hybrid = price(g500_trace, 1728, 12, m)
    assert hybrid.seconds < flat.seconds


def test_sweep_scaling_shape():
    """Strong-scaling on a reasonably sized synthetic: time at high core
    count must be lower than at the base (speedup > 1), and the small-scale
    behaviour must not be super-linear beyond 2x grid-rounding noise."""
    coo = rmat.er(scale=11, seed=3)
    m = scaled_machine(2000)
    res = sweep(coo, [48, 192, 768, 2028], threads=12, machine=m)
    times = [r.seconds for r in res]
    assert times[-1] < times[0]
    speedup = times[0] / times[-1]
    assert 1.5 < speedup < 2028 / 48 * 2


def test_augment_switch_depends_on_p(g500_trace):
    """k < 2p²: at 1 process everything is level-parallel unless k is tiny;
    at large P the same trace must use path-parallel augmentation.  We
    detect the switch through its cost signature (pricing differs)."""
    m = scaled_machine(1000)
    lo = price(g500_trace, 24, 6, m)
    hi = price(g500_trace, 2028, 12, m)
    assert lo.breakdown.seconds(Category.AUGMENT) > 0
    assert hi.breakdown.seconds(Category.AUGMENT) > 0


def test_permute_flag_affects_balance():
    """Unpermuted mesh concentrates nonzeros on diagonal blocks: busiest-rank
    compute must exceed the permuted case."""
    coo = G.mesh_rect(40, 40)
    t_perm = record(coo, permute=True)
    t_raw = record(coo, permute=False)
    m = scaled_machine(1)
    r_perm = price(t_perm, 1200, 12, m)
    r_raw = price(t_raw, 1200, 12, m)
    assert r_raw.breakdown.total_compute > r_perm.breakdown.total_compute


def test_simulate_mcm_one_shot():
    r = simulate_mcm(rmat.ssca(scale=8, seed=5), cores=108, threads=12)
    assert r.cores == 108
    assert r.cardinality > 0


# -- gather model (Fig. 9) -----------------------------------------------------------

def test_gather_time_linear_in_edges():
    a = gather_scatter_time(int(1e6), int(1e6 // 30))
    b = gather_scatter_time(int(1e8), int(1e8 // 30))
    assert b.total > 50 * a.total
    assert b.gather > b.scatter  # edges dominate the mate vectors


def test_gather_components_positive():
    c = gather_scatter_time(10_000_000, 300_000, cores=2048)
    assert c.gather > 0 and c.preprocess > 0 and c.scatter > 0
    assert c.total == pytest.approx(c.gather + c.preprocess + c.scatter)


def test_paper_fig9_magnitude():
    """~900M nonzeros at 2048 cores took ≈20 s in the paper; the model must
    land within an order of magnitude."""
    c = gather_scatter_time(900_000_000, 16_240_000, cores=2048)
    assert 2.0 < c.total < 200.0


# -- report helpers -----------------------------------------------------------------

def test_report_tables_and_csv(tmp_path, g500_trace):
    res = [price(g500_trace, c, 12) for c in (48, 192)]
    table = speedup_table(res, "test")
    assert "cores" in table and "speedup" in table
    btable = breakdown_table(res)
    assert "SpMV" in btable
    rows = results_to_rows("g500", res)
    assert rows[0]["speedup"] == 1.0
    path = write_csv(tmp_path / "out.csv", rows, CSV_FIELDS)
    assert path.exists()
    assert "g500" in path.read_text()


def test_speedup_table_empty():
    assert "no results" in speedup_table([])
