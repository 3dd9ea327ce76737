"""Production-adversity scenario suite: seeded request streams with SLOs.

A single chaos run answers "does recovery work"; a production deployment
asks "what do stragglers, degraded links and correlated failures do to my
latency tail".  This module closes that loop: a :class:`Scenario` bundles a
fault plan with a workload shape (grid, graph scale, request count,
arrival load), and :func:`run_scenario` replays a seeded request stream
through :func:`~repro.matching.mcm_dist.run_mcm_dist` with restarts
allowed, queues the requests through a single-server FIFO in *model time*,
and emits a machine-readable SLO report — p50/p99 model-time latency, recovery time
after kills, checkpoint overhead, restart counts.

Determinism
-----------

Every number in the report except ``seconds_wall`` is a pure function of
``(scenario, backend-independent program order)``:

* request fault seeds and arrival draws come from the same splitmix64
  keying the injector uses (salts 0xA1 / 0xA2 on the scenario seed);
* request *service time* is model time, not wall clock: the successful
  attempt's ``DistStats.model_seconds`` (the injector's per-rank
  message-pricing ledger) plus, for each failed attempt, the work it did
  before dying priced from the crash-free twin's *phase ledger* — the
  boundary-by-boundary ledger profile of a run that completes.  A crashed
  attempt's own counters are scheduler-racy (whether a second victim in a
  correlated group reaches its death point before the abort unwinds it
  depends on thread timing), but its ``(resume_phase, death_phase)`` span
  is deterministic, and the twin prices that span reproducibly;
* arrivals are exponential inter-arrival times derived from the seeded
  uniform draws, scaled so the offered load is ``arrival_load`` of the
  fault-free service rate.

The same scenario therefore reproduces bit-for-bit across runs AND across
the thread/process backends (the parity test holds both to one report).

Each request also runs a crash-free *reference* twin (same plan minus
``crash:`` clauses) whose final cardinality must match — adversity may
slow the matching down but never change it.
"""

from __future__ import annotations

import dataclasses
import math
import time
from dataclasses import dataclass

from ..graphs.rmat import er
from ..runtime.faults import FaultPlan, _mix, _unit
from .mcm_dist import run_mcm_dist

#: splitmix64 salts for scenario-level draws (disjoint from the injector's
#: 0x51-0x59 range)
_CAT_REQUEST = 0xA1
_CAT_ARRIVAL = 0xA2
_CAT_GRAPH = 0xA3


@dataclass(frozen=True)
class Scenario:
    """One named adversity scenario: a fault plan plus a workload shape."""

    name: str
    description: str
    #: fault-plan grammar string (see :mod:`repro.runtime.faults`)
    plan: str
    seed: int = 0
    #: ER RMAT graph scale (2^scale rows/cols per request)
    graph_scale: int = 6
    pr: int = 2
    pc: int = 2
    #: requests in the replayed stream
    requests: int = 5
    checkpoint_every: int = 1
    #: offered load relative to the fault-free service rate (< 1 keeps the
    #: FIFO queue stable so p99 measures adversity, not saturation)
    arrival_load: float = 0.75
    max_restarts: int = 8


#: The committed suite (BENCH_scenarios.json tracks one SLO block each).
SCENARIOS: dict[str, Scenario] = {
    s.name: s
    for s in (
        Scenario(
            name="baseline",
            description="healthy fabric: no faults, pure α-β message pricing",
            plan="",
            seed=1,
        ),
        Scenario(
            name="straggler",
            description="one seeded rank per phase runs its comm 8x slower",
            plan="straggler:factor=8,rank=any",
            seed=2,
        ),
        Scenario(
            name="degraded-links",
            description="rank 0's uplink 6x/3x worse, everything into rank 3 2x",
            plan="link:src=0,dst=*,alpha=6,beta=3;link:src=*,dst=3,alpha=2",
            seed=3,
        ),
        Scenario(
            name="correlated-crash",
            description="a seeded grid row dies at phase 2, on a lossy fabric",
            plan="crash:group=row,at=phase:2;transient:p=0.01",
            seed=4,
        ),
        Scenario(
            name="disrupted",
            description="40% of supersteps 6x-disrupted, 20% delivery reorder",
            plan="disrupt:p=0.4,factor=6;delay:p=0.2",
            seed=5,
        ),
    )
}


def _percentile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank percentile (deterministic, no interpolation surprises)."""
    if not sorted_values:
        return 0.0
    idx = min(len(sorted_values) - 1, max(0, math.ceil(q * len(sorted_values)) - 1))
    return sorted_values[idx]


def _ledger_at(ledger: "dict[int, float] | None", phase: int) -> float:
    """Model seconds a completing run had spent when it entered ``phase``."""
    if not ledger or phase <= 0:
        return 0.0
    if phase in ledger:
        return ledger[phase]
    return max((v for p, v in ledger.items() if p <= phase), default=0.0)


def _run_once(coo, scenario: Scenario, plan: FaultPlan, backend: "str | None"):
    """One restartable MCM-DIST run (``launch`` owns the checkpoint store)."""
    return run_mcm_dist(
        coo,
        scenario.pr,
        scenario.pc,
        faults=plan,
        checkpoint_every=scenario.checkpoint_every,
        max_restarts=scenario.max_restarts,
        backend=backend,
        init="none",
    )


def run_scenario(
    scenario: "Scenario | str",
    *,
    backend: "str | None" = None,
    requests: "int | None" = None,
) -> dict:
    """Replay ``scenario``'s request stream; return its SLO report dict.

    ``backend`` selects the transport for every run (``None`` resolves via
    ``$REPRO_SPMD_BACKEND``); ``requests`` overrides the stream length.
    All report fields except ``seconds_wall`` are deterministic in the
    scenario seed and identical across backends.
    """
    if isinstance(scenario, str):
        try:
            scenario = SCENARIOS[scenario]
        except KeyError:
            raise ValueError(
                f"unknown scenario {scenario!r}; choose from "
                f"{sorted(SCENARIOS)}"
            ) from None
    if requests is not None:
        scenario = dataclasses.replace(scenario, requests=requests)

    wall0 = time.perf_counter()
    services: list[float] = []
    ref_services: list[float] = []
    recovery: list[float] = []
    restarts = phases_replayed = 0
    checkpoint_words = total_words = total_messages = 0
    cardinality = 0
    for i in range(scenario.requests):
        req_seed = _mix(scenario.seed, _CAT_REQUEST, i) & 0x7FFFFFFF
        graph_seed = _mix(scenario.seed, _CAT_GRAPH, i) & 0x7FFFFFFF
        coo = er(scale=scenario.graph_scale, seed=graph_seed, edgefactor=8)
        plan = FaultPlan.parse(scenario.plan, seed=req_seed)
        mate_r, _mate_c, stats = _run_once(coo, scenario, plan, backend)
        card = int((mate_r != -1).sum())
        if plan.crashes:
            # crash-free twin: recovery baseline, correctness witness, and
            # the deterministic phase-ledger profile that prices the work
            # each failed attempt did before dying
            ref_plan = dataclasses.replace(plan, crashes=())
            ref_mate_r, _r, ref_stats = _run_once(coo, scenario, ref_plan, backend)
            ref_card = int((ref_mate_r != -1).sum())
            if card != ref_card:
                raise AssertionError(
                    f"scenario {scenario.name!r} request {i}: recovered "
                    f"cardinality {card} != fault-free {ref_card}"
                )
        else:
            ref_stats = stats
        profile = ref_stats.model_phase_ledger
        service = stats.model_seconds + sum(
            _ledger_at(profile, death) - _ledger_at(profile, resumed)
            for resumed, death in stats.restart_spans
        )
        if plan.crashes:
            recovery.append(max(0.0, service - ref_stats.model_seconds))
        services.append(service)
        ref_services.append(ref_stats.model_seconds)
        restarts += stats.restarts
        phases_replayed += stats.phases_replayed
        checkpoint_words += stats.checkpoint_words
        total_words += stats.total_words
        total_messages += sum(
            d["messages"] for d in (stats.comm_by_alg or {}).values()
        )
        cardinality += card

    # -- queue the stream: exponential arrivals at ``arrival_load`` of the
    # fault-free service rate, FIFO single server, all in model time
    mean_ref = sum(ref_services) / len(ref_services)
    mean_arrival = mean_ref / scenario.arrival_load
    clock = 0.0
    server_free = 0.0
    latencies: list[float] = []
    for i, service in enumerate(services):
        u = _unit(scenario.seed, _CAT_ARRIVAL, i)
        clock += -mean_arrival * math.log(1.0 - u)
        start = max(clock, server_free)
        server_free = start + service
        latencies.append(server_free - clock)
    latencies.sort()

    return {
        "scenario": scenario.name,
        "plan": scenario.plan,
        "seed": scenario.seed,
        "backend_independent": True,
        "requests": scenario.requests,
        "grid": [scenario.pr, scenario.pc],
        "graph_scale": scenario.graph_scale,
        "p50_model_ms": round(_percentile(latencies, 0.50) * 1e3, 6),
        "p99_model_ms": round(_percentile(latencies, 0.99) * 1e3, 6),
        "mean_service_model_ms": round(mean_ref * 1e3, 6),
        "recovery_model_ms": round(
            (sum(recovery) / len(recovery) * 1e3) if recovery else 0.0, 6
        ),
        "restarts": restarts,
        "phases_replayed": phases_replayed,
        "checkpoint_overhead_pct": round(
            100.0 * checkpoint_words / total_words if total_words else 0.0, 4
        ),
        "total_words": total_words,
        "total_messages": total_messages,
        "cardinality": cardinality,
        "seconds_wall": round(time.perf_counter() - wall0, 3),
    }


__all__ = ["SCENARIOS", "Scenario", "run_scenario"]
