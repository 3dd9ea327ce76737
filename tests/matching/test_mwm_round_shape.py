"""Wire shape of the MWM-DIST auction round, and the grids where replicas
could go wrong.

The round is three allgathers on the row/column sub-communicators and
nothing else, and a phase's dual certificate one more column allgather, so
the cost is countable: the ledger tests pin the step count per round and
per certificate (and the ``perfmodel`` formulas that price them) against a
real run.  The replicated state is keyed by row block along grid rows and by
column block down grid columns, so the bit-equality matrix here adds the
shapes the square-grid suites never reach — ``rowcomm`` and ``colcomm`` of
different sizes, degenerate 1-wide grids, and inputs with empty blocks.
Every test here runs each round distributed (the ``no_handoff`` seam): the
serial tail is ``test_mwm_tail.py``'s.
"""

import numpy as np
import pytest

from repro.graphs.generators import edge_weights
from repro.graphs.rmat import er
from repro.matching import auction_mwm_serial, mwm_dist, run_mwm_dist
from repro.matching.mwm_dist import CertificateError
from repro.perfmodel.collectives import allgather, auction_certificate, auction_round
from repro.sparse import COO

from ..conftest import walk_everywhere

EPS = 0.05

pytestmark = pytest.mark.usefixtures("no_handoff")


def _er(scale, seed=1):
    coo = er(scale, seed=seed, edgefactor=4)
    return coo, edge_weights(coo, dist="skewed", seed=3)


def _heavy():
    """One edge at 1.0, the rest at 0.01 × uniform: the first rung,
    ε·scale, is coarse against OPT, so phase 1 does not certify and the
    ladder falls back to finer rungs (3 phases)."""
    coo = er(5, seed=1, edgefactor=4)
    weights = edge_weights(coo, dist="uniform", seed=3) * 0.01
    weights[0] = 1.0
    return coo, weights


def _total(stats, field, op=""):
    return sum(d[field] for k, d in stats.comm_by_alg.items() if k.startswith(op))


# -- (a) ledger shape ----------------------------------------------------------


@pytest.mark.parametrize("pr,pc", [(1, 1), (2, 2), (2, 3), (3, 3)])
def test_round_is_three_row_column_allgathers(pr, pc):
    coo, weights = _heavy()
    _, _, stats = run_mwm_dist(coo, weights, pr, pc, epsilon=EPS, timeout=120)
    # zero weights -> no rung on the ε-ladder: set-up and one certified
    # extraction, no round
    _, _, idle = run_mwm_dist(coo, np.zeros(coo.nnz), pr, pc, epsilon=EPS, timeout=120)
    assert stats.auction_rounds > 20 and idle.auction_rounds == 0 and stats.phases >= 2

    assert not [k for k in stats.comm_by_alg if k.startswith("alltoall")]
    assert _total(stats, "calls", "allreduce") == _total(idle, "calls", "allreduce")
    # the α-β formula at (α, β) = (1, 0) is the round's latency steps
    per_round = auction_round(pr, pc, 1.0, 0.0, 0.0, 0.0, 0.0)
    assert per_round == 2 * (pr - 1).bit_length() + (pc - 1).bit_length()  # ⌈log₂⌉
    # the certificate's own leg is one column allgather (its price and
    # profit shares ride the extraction): at most 2 steps per phase on 2x2
    per_certificate = auction_certificate(pr, pc, 1.0, 0.0, 0.0, 0.0)
    assert per_certificate == (pr - 1).bit_length() <= 2
    p = pr * pc
    # every phase ends in a certified extraction (one grid-wide allgather
    # and the certificate leg) that feeds the ladder; the idle run holds one
    extra = stats.phases - 1
    per_extraction = allgather(p, 1.0, 0.0, 0.0)
    assert _total(stats, "steps") == (
        p * stats.auction_rounds * per_round
        + p * extra * (per_extraction + per_certificate)
        + _total(idle, "steps")
    )
    assert _total(stats, "calls") == (
        3 * p * stats.auction_rounds + 2 * p * extra + _total(idle, "calls")
    )


def test_logical_ledger_ignores_aggregation():
    coo, weights = _er(5)
    on = run_mwm_dist(coo, weights, 2, 3, epsilon=EPS, timeout=120)[2]
    with walk_everywhere():
        off = run_mwm_dist(coo, weights, 2, 3, epsilon=EPS, timeout=120)[2]
    assert on.comm_by_alg == off.comm_by_alg
    assert on.comm_messages == off.comm_messages == off.frames
    assert on.frames < off.frames


# -- (b) twin bit-equality off the square grids --------------------------------


def _rect():
    rng = np.random.default_rng(11)
    rows, cols = rng.integers(0, 3, 15), rng.integers(0, 7, 15)
    return COO(3, 7, rows, cols, dedup=False), rng.integers(1, 5, 15).astype(np.float64)


INPUTS = {
    "er5": lambda: _er(5),
    "heavy": _heavy,
    "rect3x7": _rect,
    "empty": lambda: (COO(4, 5, np.zeros(0, np.int64), np.zeros(0, np.int64)), np.zeros(0)),
    "single": lambda: (COO(5, 2, np.array([3]), np.array([1])), np.array([2.5])),
}
ODD_GRIDS = [(2, 3), (3, 2), (1, 4), (4, 1)]


@pytest.mark.parametrize("backend", ["thread", "process"])
@pytest.mark.parametrize("pr,pc", ODD_GRIDS)
@pytest.mark.parametrize("name", sorted(INPUTS))
def test_twin_bit_equality_on_odd_grids(name, pr, pc, backend):
    coo, weights = INPUTS[name]()
    mr_s, mc_s, info = auction_mwm_serial(
        coo.nrows, coo.ncols, coo.rows, coo.cols, weights, epsilon=EPS
    )
    mr_d, mc_d, stats = run_mwm_dist(
        coo, weights, pr, pc, epsilon=EPS, backend=backend, timeout=120
    )
    np.testing.assert_array_equal(mr_s, mr_d)
    np.testing.assert_array_equal(mc_s, mc_d)
    assert stats.matching_weight == info["weight"]  # same float, not approx
    assert stats.auction_rounds == info["rounds"]
    assert stats.bids_placed == info["bids"]
    assert stats.certified_ratio == info["certified_ratio"]
    assert stats.dual_bound == info["dual_bound"]
    if "prices" in info:
        np.testing.assert_array_equal(stats.auction_prices, info["prices"])


def test_counters_count_items_not_replicas():
    """Resolve runs on every rank of a grid row; an accepted bid is still one
    price update.  1x1 has no replicas, so it is the reference, and the er:7
    value is the skewed er:7 row of BENCH_mwm.json (356, 2946, 2466 on the
    ladder that ended at ε·scale/N; 169, 1424, 1151 on the a-priori ladder
    that ended at ε·max(scale, L)/N)."""
    coo, weights = _er(5)
    ref = run_mwm_dist(coo, weights, 1, 1, epsilon=EPS, timeout=120)[2]
    assert 0 < ref.price_updates <= ref.bids_placed
    for pr, pc in [(2, 2), (2, 3), (4, 1), (1, 4)]:
        stats = run_mwm_dist(coo, weights, pr, pc, epsilon=EPS, timeout=120)[2]
        assert stats.price_updates == ref.price_updates
        assert stats.bids_placed == ref.bids_placed

    coo = er(7, seed=1)
    weights = edge_weights(coo, dist="skewed", seed=7)
    stats = run_mwm_dist(coo, weights, 2, 2, epsilon=EPS, timeout=120)[2]
    assert (stats.auction_rounds, stats.bids_placed, stats.price_updates) == (70, 704, 569)


# -- (c) resume rebuilds the replicas ------------------------------------------


def test_crash_every_phase_on_2x3_recovers_mates_and_prices(tmp_path):
    from repro.runtime.checkpoint import FileCheckpointStore
    from repro.runtime.faults import FaultPlan

    coo, weights = _heavy()
    mr_ok, mc_ok, st_ok = run_mwm_dist(coo, weights, 2, 3, epsilon=EPS, timeout=120)
    assert st_ok.phases >= 2
    mr, mc, st = run_mwm_dist(
        coo, weights, 2, 3, epsilon=EPS,
        faults=FaultPlan.parse("crash:rank=any,at=phase:every", seed=5),
        checkpoint_store=FileCheckpointStore(tmp_path / "ckpt"),
        max_restarts=30,
        timeout=120,
    )
    assert st.restarts >= st_ok.phases - 1
    np.testing.assert_array_equal(mr_ok, mr)
    np.testing.assert_array_equal(mc_ok, mc)
    assert st.matching_weight == st_ok.matching_weight
    np.testing.assert_array_equal(st.auction_prices, st_ok.auction_prices)
    assert (st.certified_ratio, st.dual_bound) == (st_ok.certified_ratio, st_ok.dual_bound)


@pytest.mark.parametrize("backend", ["thread", "process"])
def test_a_restart_reports_the_fault_free_counters(backend):
    """Rank 1 dies entering phase 3, so the job resumes from phase 2's
    snapshot: the rounds, bids, price updates and edge reads its phases
    spent ride the snapshot's ``aux``, and the job reports the fault-free
    totals (1,549 edges examined when the reads did not ride it)."""
    coo, weights = _heavy()
    _, _, ok = run_mwm_dist(coo, weights, 2, 2, epsilon=EPS, timeout=120)
    _, _, st = run_mwm_dist(coo, weights, 2, 2, epsilon=EPS, timeout=120, backend=backend,
                            max_restarts=2, faults="crash:rank=1,at=phase:3")
    assert st.restart_spans == ((0, 3),) and st.phases_replayed == 0
    counters = ("auction_rounds", "bids_placed", "price_updates", "matching_weight",
                "edges_examined")
    assert [getattr(st, c) for c in counters] == [getattr(ok, c) for c in counters]
    assert (ok.auction_rounds, ok.bids_placed, ok.price_updates) == (93, 611, 479)
    assert ok.edges_examined == 3_953


def test_a_run_resumed_past_its_last_phase_recomputes_the_certificate():
    """Rank 0 dies at its last collective, after the final checkpoint: the
    restarted attempt runs no phase and must rebuild the certificate from
    the restored prices and mates alone."""
    from repro.runtime.faults import FaultPlan

    coo, weights = _heavy()
    mr_ok, mc_ok, st_ok = run_mwm_dist(coo, weights, 2, 3, epsilon=EPS, max_restarts=1,
                                       timeout=120)
    last = _total(st_ok, "calls") // 6  # every rank enters the same collectives
    mr, mc, st = run_mwm_dist(
        coo, weights, 2, 3, epsilon=EPS,
        faults=FaultPlan.parse(f"crash:rank=0,at=collective:{last}", seed=1),
        max_restarts=1, timeout=120,
    )
    assert st.restarts == 1 and not st.phase_ledger  # resumed past every phase
    np.testing.assert_array_equal(mr_ok, mr)
    np.testing.assert_array_equal(mc_ok, mc)
    np.testing.assert_array_equal(st.auction_prices, st_ok.auction_prices)
    assert (st.certified_ratio, st.dual_bound) == (st_ok.certified_ratio, st_ok.dual_bound)


# -- (d) a floor phase that fails its certificate is an engine bug, loudly ----


@pytest.mark.parametrize("pr,pc,backend", [(2, 2, "thread"), (1, 2, "process")])
def test_a_failed_floor_certificate_names_the_bidder(monkeypatch, pr, pc, backend):
    """Corrupt one price as the certificate's profit leg sees it: item x, an
    isolated row of G, looks 1e3 cheaper to its only bidder n2 + x (the
    dummy copy of row x), which then shows that slack.  The bid rounds are
    unaffected (a single-edge bidder's bid does not depend on its best
    profit), so every phase fails the certificate, the ladder reaches the
    floor, and the engine must stop there naming the bidder."""
    base, weights = _er(5)
    n1, n2 = base.nrows + 1, base.ncols
    x = n1 - 1  # no edge
    coo = COO(n1, n2, base.rows, base.cols, dedup=False)
    real = mwm_dist.combine_partials

    def corrupt(cols, best, best_row, best_w, second):
        return real(cols, np.where(best_row == x, best + 1e3, best), best_row, best_w, second)

    monkeypatch.setattr(mwm_dist, "combine_partials", corrupt)
    with pytest.raises(CertificateError) as err:
        run_mwm_dist(coo, weights, pr, pc, epsilon=EPS, backend=backend, timeout=120)
    message = str(err.value)
    assert f"bidder {n2 + x} (held on rank " in message
    assert "ladder's floor" in message and "W/(D/2) = " in message
