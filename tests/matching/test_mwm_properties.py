"""Property suite for the ε-scaled auction engine (serial twin + MWM-DIST).

Four layers of evidence, each against a stronger oracle:

* hypothesis-generated weighted bipartite graphs (varying density, dense
  weight ties, disconnected vertices): matching validity, ε-complementary
  slackness on the doubled assignment graph, and weight within
  ``(1 - ε)`` of the exact Hungarian optimum;
* the distributed engine is BIT-identical to the serial twin — mates,
  weight, round/bid counts — because both run the same NumPy kernels in
  the same Jacobi round structure with the same deterministic tie-breaks;
* the full parity matrix of the issue: er/rmat × three weight
  distributions × 1x1/2x2/3x3 grids, every cell bit-equal to the twin
  and ≥ (1-ε)·Hungarian;
* the ``cardinality_bias`` knob and the public
  :func:`repro.maximum_weight_matching` front door.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.graphs.generators import WEIGHT_DISTS, edge_weights
from repro.graphs.rmat import er, g500
from repro.matching import (
    auction_mwm_serial,
    hungarian_mwm,
    maximum_weight_matching,
    run_mwm_dist,
)
from repro.matching.auction import double_for_assignment
from repro.sparse import COO, CSC
from repro.sparse.spvec import NULL

EPS = 0.05
GRIDS = [(1, 1), (2, 2), (3, 3)]


# -- strategies --------------------------------------------------------------


@st.composite
def weighted_graphs(draw):
    """(n1, n2, rows, cols, weights) with varying density, tie-heavy
    weights, parallel edges and naturally disconnected vertices."""
    n1 = draw(st.integers(1, 9))
    n2 = draw(st.integers(1, 9))
    m = draw(st.integers(0, 2 * n1 * n2))
    seed = draw(st.integers(0, 2**31 - 1))
    kind = draw(st.sampled_from(["uniform", "tied", "mixed"]))
    rng = np.random.default_rng(seed)
    # sampling rows from a shrunken range leaves high rows disconnected
    rlim = draw(st.integers(1, n1))
    rows = rng.integers(0, rlim, m)
    cols = rng.integers(0, n2, m)
    if kind == "uniform":
        weights = rng.uniform(0.1, 4.0, m)
    elif kind == "tied":
        weights = rng.integers(1, 4, m).astype(np.float64)
    else:  # zero and negative weights must never be matched
        weights = rng.integers(-1, 3, m).astype(np.float64)
    return n1, n2, rows, cols, weights


def assert_valid(n1, n2, rows, cols, weights, mate_r, mate_c):
    """Mutual consistency; every matched pair is a real positive edge."""
    edge_w = {}
    for i, j, w in zip(rows, cols, weights):
        key = (int(i), int(j))
        edge_w[key] = max(edge_w.get(key, -np.inf), float(w))
    total = 0.0
    for i in range(n1):
        j = int(mate_r[i])
        if j != NULL:
            assert 0 <= j < n2 and int(mate_c[j]) == i
            assert (i, j) in edge_w and edge_w[(i, j)] > 0.0
            total += edge_w[(i, j)]
    for j in range(n2):
        i = int(mate_c[j])
        if i != NULL:
            assert int(mate_r[i]) == j
    return total


# -- serial twin: validity, (1-ε) bound, ε-CS --------------------------------


@settings(max_examples=120, deadline=None)
@given(weighted_graphs())
def test_twin_valid_and_near_optimal(g):
    n1, n2, rows, cols, weights = g
    mate_r, mate_c, info = auction_mwm_serial(n1, n2, rows, cols, weights, epsilon=EPS)
    achieved = assert_valid(n1, n2, rows, cols, weights, mate_r, mate_c)
    assert info["weight"] == pytest.approx(achieved)
    _, _, opt = hungarian_mwm(n1, n2, rows, cols, weights)
    assert info["weight"] >= (1.0 - EPS) * opt - 1e-9


@settings(max_examples=80, deadline=None)
@given(weighted_graphs())
def test_twin_eps_complementary_slackness(g):
    """Every assigned bidder of the doubled graph is within delta_final of
    its best profit at the final prices — the invariant the (1-ε) bound
    rests on."""
    n1, n2, rows, cols, weights = g
    _, _, info = auction_mwm_serial(n1, n2, rows, cols, weights, epsilon=EPS)
    if "prices" not in info:  # scale <= 0: empty optimum, nothing to check
        return
    price = info["prices"]
    mate_item = info["mate_item"]
    delta_final = info["schedule"][-1]
    N, dr, dc, w_eff, _ = double_for_assignment(n1, n2, rows, cols, weights)
    assert (mate_item != NULL).all()  # perfect assignment reached
    profit = w_eff - price[dr]
    for j in range(N):
        mask = dc == j
        i = int(np.flatnonzero(mate_item == j)[0])
        mine = profit[mask & (dr == i)].max()
        assert mine >= profit[mask].max() - delta_final - 1e-12


@settings(max_examples=60, deadline=None)
@given(weighted_graphs(), st.sampled_from([0.2, 0.01]))
def test_twin_bound_tracks_epsilon(g, eps):
    n1, n2, rows, cols, weights = g
    _, _, info = auction_mwm_serial(n1, n2, rows, cols, weights, epsilon=eps)
    _, _, opt = hungarian_mwm(n1, n2, rows, cols, weights)
    assert info["weight"] >= (1.0 - eps) * opt - 1e-9


# -- distributed engine == serial twin, bit for bit --------------------------


@settings(
    max_examples=10, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
@given(weighted_graphs(), st.sampled_from([(1, 1), (2, 2)]))
def test_dist_bit_identical_to_twin_small(g, grid):
    n1, n2, rows, cols, weights = g
    mr_s, mc_s, info = auction_mwm_serial(n1, n2, rows, cols, weights, epsilon=EPS)
    coo = COO(n1, n2, rows, cols, dedup=False)
    mr_d, mc_d, stats = run_mwm_dist(coo, weights, *grid, epsilon=EPS, timeout=60)
    np.testing.assert_array_equal(mr_s, mr_d)
    np.testing.assert_array_equal(mc_s, mc_d)
    assert stats.matching_weight == info["weight"]  # same float, not approx
    assert stats.auction_rounds == info["rounds"]
    assert stats.bids_placed == info["bids"]
    assert stats.certified_ratio == info["certified_ratio"]


def _parity_graph(name):
    gen, seed = {"er": (er, 1), "rmat": (g500, 2)}[name]
    return gen(6, seed=seed)


_hungarian_cache = {}


def _hungarian_opt(name, dist):
    if (name, dist) not in _hungarian_cache:
        coo = _parity_graph(name)
        w = edge_weights(coo, dist=dist, seed=7)
        _hungarian_cache[(name, dist)] = hungarian_mwm(
            coo.nrows, coo.ncols, coo.rows, coo.cols, w
        )[2]
    return _hungarian_cache[(name, dist)]


@pytest.mark.parametrize("pr,pc", GRIDS)
@pytest.mark.parametrize("dist", WEIGHT_DISTS)
@pytest.mark.parametrize("name", ["er", "rmat"])
def test_parity_matrix(name, dist, pr, pc):
    """The issue's acceptance matrix: er/rmat × weight dists × grids."""
    coo = _parity_graph(name)
    weights = edge_weights(coo, dist=dist, seed=7)
    mr_s, mc_s, info = auction_mwm_serial(
        coo.nrows, coo.ncols, coo.rows, coo.cols, weights, epsilon=EPS
    )
    mr_d, mc_d, stats = run_mwm_dist(coo, weights, pr, pc, epsilon=EPS, timeout=120)
    np.testing.assert_array_equal(mr_s, mr_d)
    np.testing.assert_array_equal(mc_s, mc_d)
    assert stats.matching_weight == info["weight"]
    assert stats.auction_rounds == info["rounds"]
    assert stats.bids_placed == info["bids"]
    assert stats.certified_ratio == info["certified_ratio"] >= 1.0 - EPS
    np.testing.assert_array_equal(stats.auction_prices, info["prices"])
    assert stats.matching_weight >= (1.0 - EPS) * _hungarian_opt(name, dist) - 1e-9
    assert_valid(
        coo.nrows, coo.ncols, coo.rows, coo.cols, weights, mr_d, mc_d
    )


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_bit_identical_across_grids_per_seed(seed):
    """For each seed, every grid shape lands on the SAME mate vectors."""
    coo = er(5, seed=seed, edgefactor=4)
    weights = edge_weights(coo, dist="intbounded", seed=seed)
    results = [
        run_mwm_dist(coo, weights, pr, pc, timeout=60) for pr, pc in GRIDS
    ]
    for mr, mc, st_ in results[1:]:
        np.testing.assert_array_equal(results[0][0], mr)
        np.testing.assert_array_equal(results[0][1], mc)
        assert st_.matching_weight == results[0][2].matching_weight


# -- the cardinality/weight knob ---------------------------------------------


def test_cardinality_bias_trades_weight_for_cardinality():
    # one heavy cross edge (10) vs two light diagonals (1 + 1): pure weight
    # takes the single heavy edge, bias >= 1 prefers the larger matching.
    rows = np.array([0, 1, 0])
    cols = np.array([0, 1, 1])
    weights = np.array([1.0, 1.0, 10.0])
    mate_r, _, info = auction_mwm_serial(2, 2, rows, cols, weights)
    assert info["cardinality"] == 1 and info["weight"] == 10.0
    mate_r, _, info_b = auction_mwm_serial(
        2, 2, rows, cols, weights, cardinality_bias=1.0
    )
    assert info_b["cardinality"] == 2
    assert info_b["weight"] == 2.0  # reported weight stays unbiased
    # the distributed engine honors the same knob, bit-identically
    coo = COO(2, 2, rows, cols, dedup=False)
    mr_d, _, stats = run_mwm_dist(coo, weights, 2, 2, cardinality_bias=1.0, timeout=60)
    np.testing.assert_array_equal(mate_r, mr_d)
    assert stats.final_cardinality == 2 and stats.matching_weight == 2.0


# -- public API --------------------------------------------------------------


def test_maximum_weight_matching_methods_agree_near_optimum():
    rng = np.random.default_rng(3)
    coo = COO(12, 12, rng.integers(0, 12, 60), rng.integers(0, 12, 60), dedup=False)
    weights = rng.uniform(0.5, 3.0, coo.nnz)
    mr_a, mc_a, w_a = maximum_weight_matching(coo, weights, epsilon=EPS)
    mr_e, mc_e, w_e = maximum_weight_matching(coo, weights, method="exact")
    assert w_a >= (1.0 - EPS) * w_e - 1e-9
    assert w_a <= w_e + 1e-9
    assert_valid(12, 12, coo.rows, coo.cols, weights, mr_a, mc_a)
    assert_valid(12, 12, coo.rows, coo.cols, weights, mr_e, mc_e)


def test_maximum_weight_matching_rejects_bad_inputs():
    coo = COO(3, 3, np.array([0, 1]), np.array([1, 2]), dedup=False)
    with pytest.raises(TypeError):
        # CSC reorders edges; weights would silently misalign
        maximum_weight_matching(CSC.from_coo(coo), np.ones(2))
    with pytest.raises(ValueError):
        maximum_weight_matching(coo, np.ones(5))
    with pytest.raises(ValueError):
        maximum_weight_matching(coo, np.ones(2), method="magic")


def test_edge_weights_deterministic_and_order_free():
    """Weights are a pure hash of (i, j, seed): permuting edge storage or
    re-deriving on another 'rank' yields identical floats."""
    coo = er(5, seed=4, edgefactor=4)
    w1 = edge_weights(coo, dist="uniform", seed=9)
    perm = np.random.default_rng(0).permutation(coo.nnz)
    shuffled = COO(coo.nrows, coo.ncols, coo.rows[perm], coo.cols[perm], dedup=False)
    w2 = edge_weights(shuffled, dist="uniform", seed=9)
    np.testing.assert_array_equal(w1[perm], w2)
    assert (w1 > 0).all()
    with pytest.raises(ValueError):
        edge_weights(coo, dist="zipf")
