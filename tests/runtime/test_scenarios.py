"""Adversity scenario suite: plans, pricing, SLO reports, determinism.

Covers the scenario-engine layers end to end: the runtime's fault-plan
grammar (crash, correlated crash groups, transient, delay) with
:class:`FaultPlanError` diagnostics, the per-edge link model and its
collectives/costsim plumbing, the one model clock the scenarios price the
engine's per-phase ledger on, the ``fault:delay`` trace spans, and the
closed-loop :func:`run_scenario` driver whose SLO reports must reproduce
bit-for-bit across runs and across the thread/process backends.
"""

import dataclasses

import numpy as np
import pytest

from repro.graphs.rmat import er
from repro.matching.mcm_dist import run_mcm_dist
from repro.perfmodel import EDISON, LinkModel
from repro.perfmodel.collectives import degraded_params
from repro.matching.scenarios import (
    SCENARIOS, _ledger_at, _model_clock, run_scenario,
)
from repro.runtime import (
    FaultInjector,
    FaultPlan,
    FaultPlanError,
)

# ---------------------------------------------------------------------------
# plan grammar: parse, describe, and FaultPlanError diagnostics
# ---------------------------------------------------------------------------

FULL_PLAN = (
    "crash:group=row,at=phase:2;crash:rank=any,at=send:3;"
    "transient:p=0.02,rma=0.01;delay:p=0.1"
)


def test_full_grammar_describe_round_trips():
    plan = FaultPlan.parse(FULL_PLAN, seed=11)
    again = FaultPlan.parse(plan.describe(), seed=11)
    assert again == plan
    assert len(plan.crashes) == 2 and plan.delay_p == 0.1


@pytest.mark.parametrize("bad, token", [
    ("crash:rank=two,at=phase:1", "two"),
    ("crash:group=diagonal,at=phase:1", "diagonal"),
    ("crash:rank=1,group=row,at=phase:1", "group"),
    # pricing-only adversity is a scenario field, not a runtime clause
    ("straggler:rank=3", "straggler"),
    ("straggler:factor=2", "straggler"),
    ("link:src=0,dst=1,alpha=2", "link"),
    ("disrupt:p=0.5", "disrupt"),
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


def test_link_worst_factors_and_wildcards():
    lm = LinkModel(degraded=((0, -1, 6.0, 3.0), (-1, 3, 2.0, 2.0)))
    # rank 0's uplink reaches any peer: every group holding rank 0 pays it
    assert lm.worst_factors(group=(0, 1)) == (6.0, 3.0)
    # a group holding both 0 and 3 matches both entries: worst per term wins
    assert lm.worst_factors(group=(0, 3)) == (6.0, 3.0)
    assert lm.worst_factors(group=(1, 3)) == (2.0, 2.0)
    assert lm.worst_factors(group=(1, 2)) == (1.0, 1.0)
    with pytest.raises(ValueError, match="must be >= 1"):
        LinkModel(degraded=((0, 1, 0.9, 1.0),))


def test_worst_factors_respects_the_group():
    lm = LinkModel(degraded=((0, 1, 9.0, 9.0),))
    assert lm.worst_factors() == (9.0, 9.0)
    # a group without rank 0 or 1 as endpoints never crosses the bad edge
    assert lm.worst_factors(group=(2, 3)) == (1.0, 1.0)
    a, b = degraded_params(EDISON.alpha, EDISON.beta, lm, group=(0, 1))
    assert (a, b) == (9.0 * EDISON.alpha, 9.0 * EDISON.beta)


# ---------------------------------------------------------------------------
# injector: correlated groups; the model clock over the phase ledger
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


def test_ledger_at_interpolates_the_phase_profile():
    profile = {1: 0.0, 2: 5.0, 3: 9.0}
    assert _ledger_at(profile, 0) == 0.0
    assert _ledger_at(profile, 2) == 5.0
    assert _ledger_at(profile, 4) == 9.0  # past the last boundary: clamp
    assert _ledger_at(None, 2) == 0.0


# ---------------------------------------------------------------------------
# fault:delay spans feed the trace-report adversity rollup
# ---------------------------------------------------------------------------


def test_retry_backoff_sleeps_are_traced_and_attributed():
    from repro.simulate.critpath import analyze, format_report

    coo = er(scale=5, seed=9, edgefactor=8)
    plan = FaultPlan.parse("transient:p=0.05", seed=3)
    _, _, stats = run_mcm_dist(coo, 2, 2, faults=plan, trace="ticks", max_restarts=3)
    spans = [
        sp for sp in stats.trace.all_spans()
        if sp.cat == "fault" and sp.name == "fault:delay"
    ]
    assert spans, "no fault:delay spans traced for a lossy fabric"
    assert {sp.args["category"] for sp in spans} == {"retry-backoff"}
    by_rank: dict = {}
    for sp in spans:
        by_rank[sp.args["rank"]] = by_rank.get(sp.args["rank"], 0.0) + sp.args["seconds"]
    rep = analyze(stats.trace)
    roll = rep["adversity"]["retry-backoff"]
    assert roll["count"] == len(spans)
    assert roll["seconds"] == pytest.approx(sum(by_rank.values()))
    assert roll["by_rank"] == pytest.approx(by_rank)
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
        LinkModel(degraded=sc.links)  # factors >= 1


def test_unknown_scenario_is_rejected_by_name():
    with pytest.raises(ValueError, match="unknown scenario"):
        run_scenario("no-such-scenario")


def test_an_empty_request_stream_is_rejected_by_value():
    with pytest.raises(ValueError, match="requests=0"):
        run_scenario("baseline", requests=0)


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
# one clock: the priced service is the α and β terms of the one price
# ---------------------------------------------------------------------------


def test_fault_free_service_is_the_e2e_alpha_beta_terms_exactly():
    """No slowdown, no damaged link: the priced service of a request is
    ``α·(Σsteps/p) + β·(Σwords/p)`` over its ``comm_by_alg`` — the e2e
    ``model.alpha_s + model.beta_s``, in the harness's own operation order
    (its ``model_s`` adds ``model.gamma_s`` for the edges read) — to the
    last bit."""
    sc = SCENARIOS["baseline"]
    _, _, stats = run_mcm_dist(er(scale=6, seed=5, edgefactor=8), sc.pr, sc.pc)
    by_alg = stats.comm_by_alg.values()
    steps = sum(d["steps"] for d in by_alg)
    words = sum(d["words"] for d in by_alg)
    entering, total = _model_clock(sc, 1, stats)
    p = sc.pr * sc.pc
    assert total == EDISON.alpha * (steps / p) + EDISON.beta * (words / p)
    assert list(entering) == list(range(1, stats.phases + 1))
    assert list(entering.values()) == sorted(entering.values())
    assert entering[stats.phases] <= total


def test_slowdown_and_links_scale_the_clock_by_their_factors():
    sc = SCENARIOS["baseline"]
    _, _, stats = run_mcm_dist(er(scale=6, seed=5, edgefactor=8), sc.pr, sc.pc)
    base = _model_clock(sc, 1, stats)[1]
    always = dataclasses.replace(sc, slowdown=(1.0, 8.0))
    assert _model_clock(always, 1, stats)[1] == pytest.approx(8 * base)
    never = dataclasses.replace(sc, slowdown=(0.0, 8.0))
    assert _model_clock(never, 1, stats)[1] == base
    # a uniform link damage is the slowest-participant (a, b) of the grid
    damaged = dataclasses.replace(sc, links=((-1, -1, 3.0, 3.0),))
    assert _model_clock(damaged, 1, stats)[1] == pytest.approx(3 * base)


def test_adversity_prices_time_but_matches_the_fault_free_mates():
    """End-to-end: the disrupted scenario's runtime faults (delivery
    reordering) leave the plain run's matching and ledger untouched, while
    its slowdown inflates the priced service."""
    coo = er(scale=5, seed=23, edgefactor=8)
    plain_r, plain_c, plain = run_mcm_dist(coo, 2, 2, init="none", max_restarts=3)
    sc = SCENARIOS["disrupted"]
    plan = FaultPlan.parse(sc.plan, seed=2)
    mate_r, mate_c, stats = run_mcm_dist(
        coo, 2, 2, faults=plan, init="none", max_restarts=3
    )
    assert np.array_equal(mate_r, plain_r) and np.array_equal(mate_c, plain_c)
    assert stats.phase_ledger == plain.phase_ledger
    assert stats.comm_by_alg == plain.comm_by_alg
    healthy = dataclasses.replace(sc, slowdown=(0.0, 1.0))
    assert _model_clock(sc, 0, stats)[1] > _model_clock(healthy, 0, stats)[1] > 0.0
