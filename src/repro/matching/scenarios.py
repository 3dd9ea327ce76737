"""Production-adversity scenario suite: seeded request streams with SLOs.

A single chaos run answers "does recovery work"; a production deployment
asks "what do stragglers, degraded links and correlated failures do to my
latency tail".  This module closes that loop: a :class:`Scenario` bundles a
fault plan and the adversity the model prices with a workload shape (grid,
graph scale, request count, arrival load), and :func:`run_scenario` replays a seeded request stream
through :func:`~repro.matching.mcm_dist.run_mcm_dist` with restarts
allowed, queues the requests through a single-server FIFO in *model time*,
and emits a machine-readable SLO report — p50/p99 model-time latency, recovery time
after kills, checkpoint overhead, restart counts.

Pricing
-------

A request's *service time* is model time on the α and β terms of the
one price (:meth:`~repro.perfmodel.machine.MachineSpec.price`, DESIGN §5),
read off the engine's own per-phase ledger (``DistStats.phase_ledger``) by
:func:`_model_clock`.  Each phase segment costs ``f_k · (a·α·Δsteps/p +
b·β·Δwords/p)``:

* ``(a, b)`` is the worst degraded edge of the scenario's ``links`` over
  the whole grid — the bulk-synchronous slowest-participant rule of
  :meth:`~repro.perfmodel.machine.MachineSpec.degraded`;
* ``f_k`` is the ``slowdown`` factor when a seeded Bernoulli draw for
  phase ``k`` falls below its probability, else 1 — a straggler (every
  superstep waits for it) or a disrupted superstep.

The runtime executes only the faults that change what a run *does*
(``crash:``, ``transient:``, ``delay:`` — the scenario's ``plan``); the
adversity that only changes how long it takes lives here, in the model.

Determinism
-----------

Every number in the report except ``seconds_wall`` is a pure function of
``(scenario, backend-independent program order)``:

* request fault seeds and arrival draws come from the same splitmix64
  keying the injector uses (salts 0xA1 / 0xA2 on the scenario seed);
* the ledger counts the logical schedule, which neither the backend, the
  physical plan, nor a transient or delay fault changes.  The successful attempt is priced from its own
  ledger; each failed attempt's lost work is priced from the crash-free
  twin's ledger over the attempt's ``(resume_phase, death_phase)`` span.
  A crashed attempt's own counters are scheduler-racy (whether a second
  victim in a correlated group reaches its death point before the abort
  unwinds it depends on thread timing), but its span is deterministic;
* arrivals are exponential inter-arrival times derived from the seeded
  uniform draws, scaled so the offered load is ``arrival_load`` of the
  fault-free service rate.

The same scenario therefore reproduces bit-for-bit across runs AND across
the thread/process backends (the parity test holds both to one report).

Each request with crashes also runs a crash-free *reference* twin (same
plan minus ``crash:`` clauses) whose final cardinality must match —
adversity may slow the matching down but never change it.
"""

from __future__ import annotations

import dataclasses
import math
import time
from dataclasses import dataclass

from ..graphs.rmat import er
from ..perfmodel import EDISON, LinkModel
from ..runtime.faults import FaultPlan, _mix, _unit
from .mcm_dist import run_mcm_dist

#: splitmix64 salts for scenario-level draws (0x57 is the per-phase
#: slowdown draw; the rest are disjoint from the injector's 0x51-0x59 range)
_CAT_SLOWDOWN = 0x57
_CAT_REQUEST = 0xA1
_CAT_ARRIVAL = 0xA2
_CAT_GRAPH = 0xA3


@dataclass(frozen=True)
class Scenario:
    """One named adversity scenario: a fault plan, the adversity the model
    prices, and a workload shape."""

    name: str
    description: str
    #: fault-plan grammar string the runtime executes (crash / transient /
    #: delay; see :mod:`repro.runtime.faults`)
    plan: str
    seed: int = 0
    #: (prob, factor): each phase runs ``factor``x slower with probability
    #: ``prob`` (a seeded draw per phase)
    slowdown: tuple[float, float] = (0.0, 1.0)
    #: degraded directed edges ``(src, dst, alpha_factor, beta_factor)``
    #: (see :class:`~repro.perfmodel.links.LinkModel`)
    links: tuple[tuple[int, int, float, float], ...] = ()
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
            description="healthy fabric: no faults, the plain α-β clock",
            plan="",
            seed=1,
        ),
        Scenario(
            name="straggler",
            description="a persistent straggler: every superstep waits 8x",
            plan="",
            seed=2,
            slowdown=(1.0, 8.0),
        ),
        Scenario(
            name="degraded-links",
            description="rank 0's uplink 6x/3x worse, everything into rank 3 2x",
            plan="",
            seed=3,
            links=((0, -1, 6.0, 3.0), (-1, 3, 2.0, 2.0)),
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
            plan="delay:p=0.2",
            seed=5,
            slowdown=(0.4, 6.0),
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


def _model_clock(scenario: Scenario, seed: int, stats) -> "tuple[dict[int, float], float]":
    """Price one attempt's communication ledger on the scenario's α-β clock.

    Returns the model seconds the attempt had spent entering each phase
    boundary of ``stats.phase_ledger``, and its total at the end of the
    job (over ``stats.comm_by_alg``).  The segment from one boundary to
    the next — keyed by the phase it opens, the segment before the first
    boundary by the phase before it — costs ``f_k · (a·α·Δsteps/p +
    b·β·Δwords/p)``; each boundary prices the ``f_k``-weighted steps and
    words so far through :meth:`~repro.perfmodel.machine.MachineSpec.price`
    on the degraded machine.  With no slowdown and no damaged link that is
    the α and β terms of the e2e model clock exactly (the e2e clock also
    charges γ for the edges read, which the phase ledger does not hold).
    """
    p = scenario.pr * scenario.pc
    machine = EDISON.degraded(LinkModel(degraded=scenario.links), range(p))
    prob, factor = scenario.slowdown
    marks = list(stats.phase_ledger.items())
    k = marks[0][0] - 1 if marks else 0
    steps = words = 0.0
    last = (0, 0)
    entering: dict[int, float] = {}
    for phase, point in [*marks, (None, stats.ledger())]:
        f = factor if _unit(seed, _CAT_SLOWDOWN, k) < prob else 1.0
        steps += f * (point[0] - last[0])
        words += f * (point[1] - last[1])
        entering[phase] = machine.price(p, steps, words).total
        last, k = point, phase
    total = entering.pop(None)
    return entering, total


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


def resolve_scenario(
    scenario: "Scenario | str", requests: "int | None" = None
) -> Scenario:
    """``scenario`` (or the registered one of that name) with its stream
    length overridden by ``requests``; raises ``ValueError`` for an
    unknown name or a stream of fewer than one request."""
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
    if scenario.requests < 1:
        raise ValueError(
            f"a scenario needs at least one request, got requests={scenario.requests}"
        )
    return scenario


def run_scenario(
    scenario: "Scenario | str",
    *,
    backend: "str | None" = None,
    requests: "int | None" = None,
) -> dict:
    """Replay ``scenario``'s request stream; return its SLO report dict.

    ``backend`` selects the transport for every run (``None`` resolves via
    ``$REPRO_SPMD_BACKEND``); ``requests`` overrides the stream length
    (see :func:`resolve_scenario`).  All report fields except
    ``seconds_wall`` are deterministic in the scenario seed and identical
    across backends.
    """
    scenario = resolve_scenario(scenario, requests)

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
        profile, ref_service = _model_clock(scenario, req_seed, ref_stats)
        service = _model_clock(scenario, req_seed, stats)[1] + sum(
            _ledger_at(profile, death) - _ledger_at(profile, resumed)
            for resumed, death in stats.restart_spans
        )
        if plan.crashes:
            recovery.append(max(0.0, service - ref_service))
        services.append(service)
        ref_services.append(ref_service)
        restarts += stats.restarts
        phases_replayed += stats.phases_replayed
        checkpoint_words += stats.checkpoint_words
        total_words += stats.ledger()[1]
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
        "slowdown": list(scenario.slowdown),
        "links": [list(edge) for edge in scenario.links],
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


__all__ = ["SCENARIOS", "Scenario", "resolve_scenario", "run_scenario"]
