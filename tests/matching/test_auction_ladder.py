"""The ε-scaling ladder (:func:`repro.matching.auction.next_delta`).

The ladder ends at ``ε·max(scale, L)/N`` — L the effective weight of the
best matching the run has extracted — instead of ``ε·scale/N``.  That is
sound only while every L fed to it is the weight of a real matching (so
L ≤ OPT) and the last phase really runs at or below the floor; both are
asserted here against the exact Hungarian optimum, and the step function
itself against the precomputed schedule it replaced.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.matching import auction_mwm_serial, hungarian_mwm
from repro.matching.auction import next_delta

from .test_mwm_properties import weighted_graphs


def _ladder(scale, lower, n, eps):
    """Every rung for a fixed L, largest first."""
    rungs, d = [], None
    while (d := next_delta(d, scale, lower, n, eps)) is not None:
        rungs.append(d)
        assert len(rungs) < 2_000, "the ladder must terminate"
    return rungs


def _scale_only_schedule(scale, n, eps):
    """The ladder before L: ÷8 from scale/8, then ε·scale/n."""
    d_final = eps * scale / n
    schedule, d = [], scale / 8.0
    while d > d_final:
        schedule.append(d)
        d /= 8.0
    schedule.append(d_final)
    return schedule


# -- the step function ---------------------------------------------------------


def test_first_rung_is_an_eighth_of_scale():
    assert next_delta(None, 3.0, 0.0, 100, 0.05) == 3.0 / 8
    # L does not move the first rung unless the floor is above it
    assert next_delta(None, 3.0, 50.0, 100, 0.05) == 3.0 / 8
    assert next_delta(None, 1.0, 0.0, 2, 0.5) == 0.25  # floor 0.25 > 1/8


@pytest.mark.parametrize("scale,n,eps", [(3.7, 1000, 0.05), (1.0, 256, 0.2), (2000.0, 1024, 0.01)])
def test_rungs_divide_by_eight_exactly_until_the_clamp(scale, n, eps):
    rungs = _ladder(scale, 0.0, n, eps)
    floor = eps * scale / n
    assert rungs[0] == scale / 8
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


def test_no_positive_scale_has_no_rung_and_epsilon_must_be_positive():
    assert next_delta(None, 0.0, 0.0, 8, 0.05) is None
    assert next_delta(None, -1.0, 0.0, 8, 0.05) is None
    with pytest.raises(ValueError, match="epsilon"):
        next_delta(None, 1.0, 0.0, 8, 0.0)


# -- what the twin feeds it ----------------------------------------------------


@settings(max_examples=120, deadline=None)
@given(weighted_graphs(), st.sampled_from([0.2, 0.05, 0.01]), st.sampled_from([0.0, 1.0]))
def test_twin_feeds_the_ladder_only_bounds_it_holds(g, eps, bias):
    n1, n2, rows, cols, weights = g
    _, _, info = auction_mwm_serial(
        n1, n2, rows, cols, weights, epsilon=eps, cardinality_bias=bias
    )
    if not info["phases"]:  # no positive weight: OPT is the empty matching
        assert info["weight"] == 0.0 and info["scale"] <= 0.0
        return
    bias_add = bias * info["scale"]
    _, _, opt_eff = hungarian_mwm(n1, n2, rows, cols, weights + bias_add)
    bounds = info["lower_bounds"]
    assert len(bounds) == len(info["schedule"]) == info["phases"]
    assert all(a <= b for a, b in zip(bounds, bounds[1:]))  # L only rises
    assert all(lower <= opt_eff + 1e-9 for lower in bounds)
    # the last phase ran at or below the floor its own L set
    n = n1 + n2
    floor_total = eps * max(info["scale_eff"], bounds[-1])
    assert info["schedule"][-1] * n <= floor_total * (1 + 1e-12)
    if bias == 0.0:
        # ... which is what the (1 - ε/2) bound of the doubling rests on
        _, _, opt = hungarian_mwm(n1, n2, rows, cols, weights)
        assert info["weight"] >= (1.0 - eps / 2) * opt - 1e-9
        assert bounds[-1] >= info["weight"]
