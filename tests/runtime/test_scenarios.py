"""Adversity scenario suite: plans, pricing, SLO reports, determinism.

Covers the scenario-engine layers end to end: the extended fault-plan
grammar (stragglers, degraded links, correlated crash groups, superstep
disruption) with :class:`FaultPlanError` diagnostics, the per-edge α-β
link model and its collectives/costsim plumbing, the injector's
deterministic model-time ledger, the ``fault:delay`` trace spans, and the
closed-loop :func:`run_scenario` driver whose SLO reports must reproduce
bit-for-bit across runs and across the thread/process backends.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.graphs.rmat import er
from repro.matching.mcm_dist import run_mcm_dist
from repro.perfmodel import EDISON, LinkModel
from repro.perfmodel.collectives import degraded_params
from repro.matching.scenarios import SCENARIOS, _ledger_at, run_scenario
from repro.runtime import (
    FaultInjector,
    FaultPlan,
    FaultPlanError,
)

# ---------------------------------------------------------------------------
# plan grammar: parse, describe, and FaultPlanError diagnostics
# ---------------------------------------------------------------------------

FULL_PLAN = (
    "crash:group=row,at=phase:2;transient:p=0.02,rma=0.01;delay:p=0.1;"
    "straggler:factor=8,rank=any,sleep=0.001;"
    "link:src=0,dst=*,alpha=6,beta=3;disrupt:p=0.4,factor=6"
)


def test_full_grammar_describe_round_trips():
    plan = FaultPlan.parse(FULL_PLAN, seed=11)
    again = FaultPlan.parse(plan.describe(), seed=11)
    assert again == plan
    assert plan.straggling
    assert plan.links and plan.disrupt_p == 0.4


@pytest.mark.parametrize("bad, token", [
    ("crash:rank=two,at=phase:1", "two"),
    ("crash:group=diagonal,at=phase:1", "diagonal"),
    ("crash:rank=1,group=row,at=phase:1", "group"),
    ("straggler:rank=3", "factor"),
    ("straggler:factor=0.5", "0.5"),
    ("link:src=0,alpha=2", "dst"),
    ("link:src=0,dst=1,alpha=0.9", "0.9"),
    ("disrupt:p=0.5,factor=0.2", "0.2"),
    ("transient:q=0.5", "q"),
    ("bogus:p=1", "bogus"),
])
def test_malformed_plans_raise_faultplanerror_naming_the_token(bad, token):
    with pytest.raises(FaultPlanError) as ei:
        FaultPlan.parse(bad)
    assert token in str(ei.value)


def test_faultplanerror_is_a_valueerror():
    """Pre-existing callers catch ValueError; the richer type must still
    land in those handlers."""
    assert issubclass(FaultPlanError, ValueError)
    with pytest.raises(ValueError):
        FaultPlan.parse("crash:at=phase")


def test_group_plan_requires_a_grid_shape():
    plan = FaultPlan.parse("crash:group=col,at=phase:1", seed=0)
    with pytest.raises(FaultPlanError, match="grid"):
        FaultInjector(plan, 4)
    FaultInjector(plan, 4, grid=(2, 2))  # with a grid it arms fine


# ---------------------------------------------------------------------------
# link model + degraded collective parameters
# ---------------------------------------------------------------------------


def test_link_model_factors_and_wildcards():
    lm = LinkModel(degraded=((0, -1, 6.0, 3.0), (-1, 3, 2.0, 2.0)))
    assert lm.damaged
    assert lm.factors(0, 1) == (6.0, 3.0)
    # rank 0 -> rank 3 matches both entries: worst factor per term wins
    assert lm.factors(0, 3) == (6.0, 3.0)
    assert lm.factors(1, 2) == (1.0, 1.0)
    healthy = lm.message_seconds(1, 2, 10)
    assert healthy == pytest.approx(EDISON.alpha + EDISON.beta * 10)
    assert lm.message_seconds(0, 1, 10) == pytest.approx(
        6.0 * EDISON.alpha + 3.0 * EDISON.beta * 10
    )


def test_worst_factors_respects_the_group():
    lm = LinkModel(degraded=((0, 1, 9.0, 9.0),))
    assert lm.worst_factors() == (9.0, 9.0)
    # a group without rank 0 or 1 as endpoints never crosses the bad edge
    assert lm.worst_factors(group=(2, 3)) == (1.0, 1.0)
    a, b = degraded_params(EDISON.alpha, EDISON.beta, lm, group=(0, 1))
    assert (a, b) == (9.0 * EDISON.alpha, 9.0 * EDISON.beta)
    # no link model: parameters pass through untouched
    assert degraded_params(1.0, 2.0) == (1.0, 2.0)


def test_degraded_links_inflate_costsim_estimates():
    from repro.simulate.costsim import price, record

    trace = record(er(scale=7, seed=3, edgefactor=8))
    healthy = price(trace, 48, 12)
    damaged = price(trace, 48, 12,
                    links=LinkModel(degraded=((0, -1, 8.0, 4.0),)))
    assert damaged.seconds > healthy.seconds


# ---------------------------------------------------------------------------
# injector: correlated groups, stragglers, disruption, pricing
# ---------------------------------------------------------------------------


def test_group_members_row_col_clique_are_seeded_and_deterministic():
    plan_row = FaultPlan.parse("crash:group=row,at=phase:1", seed=5)
    plan_col = FaultPlan.parse("crash:group=col,at=phase:1", seed=5)
    plan_clq = FaultPlan.parse("crash:group=clique:3,at=phase:1", seed=5)
    for plan in (plan_row, plan_col, plan_clq):
        inj_a = FaultInjector(plan, 6, grid=(2, 3))
        inj_b = FaultInjector(plan, 6, grid=(2, 3))
        spec = plan.crashes[0]
        members = inj_a._group_members(spec, 0, 1)
        assert members == inj_b._group_members(spec, 0, 1)
        assert all(0 <= r < 6 for r in members)
    row = FaultInjector(plan_row, 6, grid=(2, 3))._group_members(
        plan_row.crashes[0], 0, 1
    )
    assert len(row) == 3 and len({r // 3 for r in row}) == 1
    col = FaultInjector(plan_col, 6, grid=(2, 3))._group_members(
        plan_col.crashes[0], 0, 1
    )
    assert len(col) == 2 and len({r % 3 for r in col}) == 1
    clq = FaultInjector(plan_clq, 6, grid=(2, 3))._group_members(
        plan_clq.crashes[0], 0, 1
    )
    assert len(clq) == 3 and len(set(clq)) == 3


def test_straggler_and_disruption_inflate_the_model_factor():
    plan = FaultPlan.parse("straggler:factor=8,rank=1;disrupt:p=1,factor=4", seed=0)
    inj = FaultInjector(plan, 4)
    inj._counts[1]["phase"] = 3
    inj._counts[0]["phase"] = 3
    # every phase is disrupted (p=1); rank 1 additionally straggles
    assert inj.model_factor(1) == pytest.approx(32.0)
    assert inj.model_factor(0) == pytest.approx(4.0)
    assert inj.straggler_of(3) == 1
    assert inj.phase_disrupted(3)


def test_price_message_accumulates_the_link_inflated_ledger():
    plan = FaultPlan.parse("link:src=0,dst=1,alpha=2,beta=2", seed=0)
    inj = FaultInjector(plan, 2)
    healthy = EDISON.alpha + EDISON.beta * 10
    assert inj.price_message(1, 0, 10) == pytest.approx(healthy)
    assert inj.price_message(0, 1, 10) == pytest.approx(2 * healthy)
    assert inj.model_seconds == [
        pytest.approx(2 * healthy), pytest.approx(healthy)
    ]


def test_ledger_at_interpolates_the_phase_profile():
    profile = {1: 0.0, 2: 5.0, 3: 9.0}
    assert _ledger_at(profile, 0) == 0.0
    assert _ledger_at(profile, 2) == 5.0
    assert _ledger_at(profile, 4) == 9.0  # past the last boundary: clamp
    assert _ledger_at(None, 2) == 0.0


# ---------------------------------------------------------------------------
# fault:delay spans feed the trace-report adversity rollup
# ---------------------------------------------------------------------------


def test_straggler_sleeps_are_traced_and_attributed():
    from repro.simulate.critpath import analyze, format_report

    coo = er(scale=5, seed=9, edgefactor=8)
    plan = FaultPlan.parse("straggler:factor=2,rank=1,sleep=0.002", seed=3)
    _, _, stats = run_mcm_dist(coo, 2, 2, faults=plan, trace="ticks", max_restarts=3)
    spans = [
        sp for sp in stats.trace.all_spans()
        if sp.cat == "fault" and sp.name == "fault:delay"
    ]
    assert spans, "no fault:delay spans traced for a sleeping straggler"
    assert {sp.args["category"] for sp in spans} == {"straggler"}
    assert all(sp.args["rank"] == 1 and sp.args["seconds"] == 0.002
               for sp in spans)
    rep = analyze(stats.trace)
    roll = rep["adversity"]["straggler"]
    assert roll["count"] == len(spans)
    assert roll["seconds"] == pytest.approx(0.002 * len(spans))
    assert roll["by_rank"] == {1: pytest.approx(0.002 * len(spans))}
    # the per-event fault listing must not be flooded by delay markers
    assert not any(f["name"] == "fault:delay" for f in rep["faults"])
    assert "injected adversity time:" in format_report(rep)


# ---------------------------------------------------------------------------
# the closed-loop scenario driver
# ---------------------------------------------------------------------------

REQUIRED_SCENARIOS = {"baseline", "straggler", "degraded-links", "correlated-crash"}


def test_registry_holds_the_required_scenarios_with_parsable_plans():
    assert REQUIRED_SCENARIOS <= set(SCENARIOS)
    for sc in SCENARIOS.values():
        plan = FaultPlan.parse(sc.plan, seed=sc.seed)
        assert FaultPlan.parse(plan.describe(), seed=sc.seed) == plan


def test_unknown_scenario_is_rejected_by_name():
    with pytest.raises(ValueError, match="unknown scenario"):
        run_scenario("no-such-scenario")


def _strip_wall(report: dict) -> dict:
    return {k: v for k, v in report.items() if not k.startswith("seconds")}


@pytest.mark.parametrize("name", ["straggler", "correlated-crash"])
def test_scenario_reports_reproduce_bit_for_bit(name):
    a = run_scenario(name, backend="thread", requests=2)
    b = run_scenario(name, backend="thread", requests=2)
    assert _strip_wall(a) == _strip_wall(b)
    if name == "correlated-crash":
        assert a["restarts"] >= 1 and a["recovery_model_ms"] > 0.0
    else:
        assert a["restarts"] == 0
    assert a["p50_model_ms"] > 0.0 and a["p99_model_ms"] >= a["p50_model_ms"]


def test_scenario_reports_match_across_backends():
    """The tentpole determinism claim: one scenario seed, one SLO report,
    whether ranks are threads or forked processes."""
    thread = run_scenario("correlated-crash", backend="thread", requests=2)
    process = run_scenario("correlated-crash", backend="process", requests=2)
    assert _strip_wall(thread) == _strip_wall(process)


# ---------------------------------------------------------------------------
# property: adversity pricing never perturbs the algorithm
# ---------------------------------------------------------------------------

_BASELINES: dict = {}


def _logical_fingerprint(coo, pr, pc, plan=None):
    mate_r, mate_c, stats = run_mcm_dist(coo, pr, pc, faults=plan, max_restarts=3)
    comm = {
        key: {f: d[f] for f in ("calls", "messages", "words")}
        for key, d in (stats.comm_by_alg or {}).items()
    }
    return mate_r, mate_c, stats.total_words, comm


@settings(max_examples=6, deadline=None)
@given(
    seed=st.integers(0, 2**31 - 1),
    grid=st.sampled_from([(1, 2), (2, 2)]),
    factor=st.floats(1.0, 64.0, allow_nan=False),
)
def test_stragglers_and_links_never_change_logical_behavior(seed, grid, factor):
    """Stragglers and degraded links reprice time; they must never change
    the message pattern or the matching itself."""
    coo = _BASELINES.setdefault("coo", er(scale=5, seed=17, edgefactor=8))
    base = _BASELINES.get(grid)
    if base is None:
        base = _BASELINES[grid] = _logical_fingerprint(coo, *grid)
    plan = FaultPlan.parse(
        f"straggler:factor={factor},rank=any;"
        f"link:src=0,dst=*,alpha={factor};disrupt:p=0.5,factor={factor}",
        seed=seed,
    )
    mate_r, mate_c, words, comm = _logical_fingerprint(coo, *grid, plan=plan)
    assert np.array_equal(mate_r, base[0])
    assert np.array_equal(mate_c, base[1])
    assert words == base[2]
    assert comm == base[3]


def test_adversity_prices_time_but_matches_the_fault_free_mates():
    """End-to-end: the straggler scenario's graphs matched under adversity
    equal the plain run's matching, while model time is inflated."""
    coo = er(scale=5, seed=23, edgefactor=8)
    plain_r, plain_c, _ = run_mcm_dist(coo, 2, 2, init="none")
    plan = FaultPlan.parse("straggler:factor=8,rank=any", seed=2)
    mate_r, mate_c, stats = run_mcm_dist(
        coo, 2, 2, faults=plan, init="none", max_restarts=3
    )
    ref_r, ref_c, ref_stats = run_mcm_dist(
        coo, 2, 2, faults=FaultPlan.parse("", seed=2), init="none", max_restarts=3
    )
    assert np.array_equal(mate_r, plain_r) and np.array_equal(mate_c, plain_c)
    assert np.array_equal(ref_r, plain_r) and np.array_equal(ref_c, plain_c)
    assert stats.model_seconds > ref_stats.model_seconds > 0.0
