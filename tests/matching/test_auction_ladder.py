"""The certified ε-scaling ladder (:func:`repro.matching.auction.next_delta`
and :func:`~repro.matching.auction.certify`).

A run stops at the first phase whose dual certificate proves
``L >= (1 - ε)·D/2``; the ladder starts at ``min(ε, 1/8)·scale`` and, while
uncertified, divides by 8 down to the floor ``ε·max(scale, L)/N`` — L the
effective weight of the best matching the run has extracted.  That is sound
only while D really bounds the optimum, every L fed to the ladder is the
weight of a real matching (so L ≤ OPT) and a phase at the floor always
certifies; all three are asserted here against the exact Hungarian
optimum, and the step function itself against the schedule it encodes.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.matching import auction, auction_mwm_serial, hungarian_mwm
from repro.matching.auction import certify, next_delta

from .test_mwm_properties import weighted_graphs


def _ladder(scale, lower, n, eps):
    """Every rung for a fixed L when no phase certifies, largest first."""
    rungs, d = [], None
    while (d := next_delta(d, scale, lower, n, eps)) is not None:
        rungs.append(d)
        assert len(rungs) < 2_000, "the ladder must terminate"
    return rungs


def _scale_only_schedule(scale, n, eps):
    """The ladder without L: ÷8 from min(ε, 1/8)·scale, then ε·scale/n."""
    d_final = eps * scale / n
    schedule, d = [], min(eps, 0.125) * scale
    while d > d_final:
        schedule.append(d)
        d /= 8.0
    schedule.append(d_final)
    return schedule


# -- the step function ---------------------------------------------------------


def test_first_rung_is_epsilon_capped_at_an_eighth_of_scale():
    assert next_delta(None, 3.0, 0.0, 100, 0.05) == 0.05 * 3.0
    assert next_delta(None, 3.0, 0.0, 100, 0.2) == 3.0 / 8  # ε >= 1/8: unchanged
    # L does not move the first rung unless the floor is above it
    assert next_delta(None, 3.0, 50.0, 100, 0.05) == 0.05 * 3.0
    assert next_delta(None, 1.0, 0.0, 2, 0.5) == 0.25  # floor 0.25 > 1/8


@pytest.mark.parametrize("scale,n,eps", [(3.7, 1000, 0.05), (1.0, 256, 0.2), (2000.0, 1024, 0.01)])
def test_rungs_divide_by_eight_exactly_until_the_clamp(scale, n, eps):
    rungs = _ladder(scale, 0.0, n, eps)
    floor = eps * scale / n
    assert rungs[0] == min(eps, 0.125) * scale
    assert all(b == a / 8 for a, b in zip(rungs, rungs[1:-1]))  # exponent shifts
    assert rungs[-1] == floor and rungs[-2] / 8 <= floor < rungs[-2]
    assert next_delta(rungs[-1], scale, 0.0, n, eps) is None


@settings(max_examples=200, deadline=None)
@given(
    st.floats(1e-3, 1e6), st.floats(0.0, 1.0), st.integers(1, 1 << 20),
    st.sampled_from([0.2, 0.05, 0.01]),
)
def test_lower_bound_below_scale_reproduces_the_scale_only_end(scale, frac, n, eps):
    assert _ladder(scale, frac * scale, n, eps) == _scale_only_schedule(scale, n, eps)


def test_a_bound_above_scale_ends_the_ladder_early():
    scale, n, eps = 1.0, 1024, 0.05
    lower = n / 4 * scale  # a matching of n/4 heaviest edges
    short, full = _ladder(scale, lower, n, eps), _ladder(scale, 0.0, n, eps)
    assert len(short) < len(full) and short[-1] == eps * lower / n
    # a phase that already ran at or below a raised floor is the last one
    assert next_delta(full[2], scale, lower, n, eps) is None


def test_a_certified_phase_ends_the_ladder_on_any_rung():
    full = _ladder(1.0, 0.0, 1024, 0.05)
    assert len(full) > 2
    for d in full:
        assert next_delta(d, 1.0, 0.0, 1024, 0.05, certified=True) is None


def test_certify_is_order_free_and_bounds_the_verdict():
    rng = np.random.default_rng(0)
    prices, profits = rng.uniform(-1e3, 1e3, 500), rng.uniform(0.0, 1e-3, 500)
    dual, ratio, ok = certify(prices, profits, 10.0, 0.05)
    perm = rng.permutation(500)
    assert certify(prices[perm], profits[perm[::-1]], 10.0, 0.05) == (dual, ratio, ok)
    assert ratio == 2 * 10.0 / dual and ok == (ratio >= 0.95)
    # no positive dual: only the empty matching is optimal
    assert certify(np.zeros(3), np.zeros(3), 0.0, 0.05) == (0.0, 1.0, True)


def test_no_positive_scale_has_no_rung_and_epsilon_must_be_positive():
    assert next_delta(None, 0.0, 0.0, 8, 0.05) is None
    assert next_delta(None, -1.0, 0.0, 8, 0.05) is None
    with pytest.raises(ValueError, match="epsilon"):
        next_delta(None, 1.0, 0.0, 8, 0.0)


# -- what the twin feeds it ----------------------------------------------------


#: bias 1 over a zero-weight edge: the pair (0, 0) is dropped from the result
#: but carries effective weight 2, so L must count it for the floor to certify
_ZERO_EDGE_UNDER_BIAS = (2, 2, np.array([0, 1]), np.array([0, 1]), np.array([0.0, 1.0]))


@settings(max_examples=120, deadline=None)
@given(weighted_graphs(), st.sampled_from([0.2, 0.05, 0.01]), st.sampled_from([0.0, 1.0]))
@example(_ZERO_EDGE_UNDER_BIAS, 0.05, 1.0)
def test_twin_feeds_the_ladder_only_bounds_it_holds(g, eps, bias):
    n1, n2, rows, cols, weights = g
    _, _, info = auction_mwm_serial(
        n1, n2, rows, cols, weights, epsilon=eps, cardinality_bias=bias
    )
    if not info["phases"]:  # no positive weight: OPT is the empty matching
        assert info["weight"] == 0.0 and info["scale"] <= 0.0
        assert info["certified_ratio"] == 1.0
        return
    bias_add = bias * info["scale"]
    _, _, opt_eff = hungarian_mwm(n1, n2, rows, cols, weights + bias_add)
    bounds, ratios = info["lower_bounds"], info["ratios"]
    assert len(bounds) == len(ratios) == len(info["schedule"]) == info["phases"]
    assert all(a <= b for a, b in zip(bounds, bounds[1:]))  # L only rises
    assert all(lower <= opt_eff + 1e-9 for lower in bounds)
    # weak duality, against an oracle that shares no code with the auction
    assert info["dual_bound"] >= 2 * opt_eff * (1 - 1e-12)
    # the run ends on its first certified phase, and the certificate holds
    assert info["certified_ratio"] == ratios[-1] >= 1.0 - eps
    assert all(r < 1.0 - eps for r in ratios[:-1])
    assert ratios[-1] * info["dual_bound"] / 2 >= (1.0 - eps) * opt_eff - 1e-9
    if bias == 0.0:
        # the certified bound is (1 - ε); the (1 - ε/2) bound of the doubling
        # holds only for a run that reached the floor, which a certified run
        # usually stops short of
        _, _, opt = hungarian_mwm(n1, n2, rows, cols, weights)
        assert info["weight"] >= (1.0 - eps) * opt - 1e-9
        assert bounds[-1] >= info["weight"]


def _a_priori(d, scale, lower, n, epsilon, certified=False):
    """The ladder with the verdict ignored: every run ends at the floor."""
    return next_delta(d, scale, lower, n, epsilon)


@settings(max_examples=120, deadline=None)
@given(weighted_graphs(), st.sampled_from([0.2, 0.05, 0.01]), st.sampled_from([0.0, 1.0]))
@example(_ZERO_EDGE_UNDER_BIAS, 0.05, 1.0)
def test_a_phase_at_the_floor_always_certifies(g, eps, bias):
    """n·δ_floor <= ε·OPT_eff <= ε·D/2, and the phase's assignment is within
    n·δ of D, so its better half certifies with margin: ratio >= 1 - ε/2.
    This is the backstop the engine's loud failure rests on."""
    n1, n2, rows, cols, weights = g
    with mock.patch.object(auction, "next_delta", _a_priori):
        _, _, info = auction_mwm_serial(
            n1, n2, rows, cols, weights, epsilon=eps, cardinality_bias=bias
        )
    if not info["phases"]:
        return
    floor = eps * max(info["scale_eff"], info["lower_bounds"][-1]) / (n1 + n2)
    assert info["schedule"][-1] <= floor * (1 + 1e-12)  # it did run at the floor
    assert info["ratios"][-1] >= 1.0 - eps / 2 - 1e-12
