"""The deterministic fault-injection layer: plans, injector, retries."""

import time

import numpy as np
import pytest

from repro.runtime import (
    CommStats,
    CrashSpec,
    FaultInjector,
    FaultPlan,
    RankKilledError,
    RetryPolicy,
    TransientCommError,
    spmd,
)


# -- plan grammar ------------------------------------------------------------

def test_parse_full_grammar():
    plan = FaultPlan.parse(
        "crash:rank=1,at=collective:5; crash:rank=any,at=phase:every;"
        "transient:send=0.02,rma=0.01; delay:p=0.1",
        seed=42,
    )
    assert plan.seed == 42
    assert plan.crashes == (
        CrashSpec(rank=1, at="collective", n=5),
        CrashSpec(rank=None, at="phase", n=None),
    )
    assert plan.transient_send_p == 0.02
    assert plan.transient_rma_p == 0.01
    assert plan.delay_p == 0.1
    assert "crash" in plan.describe() and "delay" in plan.describe()


def test_parse_transient_p_applies_to_both_categories():
    plan = FaultPlan.parse("transient:p=0.3")
    assert plan.transient_send_p == plan.transient_rma_p == 0.3


@pytest.mark.parametrize("bad", [
    "explode:p=1",                   # unknown clause
    "crash:rank=0,at=barrier:1",     # unknown crash kind
    "crash:rank=0,at=send:every",    # 'every' only for phase crashes
    "crash:rank=0",                  # missing at=
])
def test_parse_rejects_bad_plans(bad):
    with pytest.raises(ValueError):
        FaultPlan.parse(bad)


def test_empty_plan_is_noop():
    plan = FaultPlan.parse("")
    inj = FaultInjector(plan, 2)
    for _ in range(100):
        assert inj.on_send(0) is None
        inj.on_collective(1)
        inj.on_rma(0)
    assert inj.events == [[], []]


# -- injector determinism ----------------------------------------------------

def test_decisions_depend_only_on_seed_rank_and_counter():
    plan = FaultPlan(seed=7, transient_send_p=0.3, delay_p=0.3)

    def stream(rank, n):
        inj = FaultInjector(plan, 4)
        out = []
        for _ in range(n):
            try:
                out.append(("ok", inj.on_send(rank)))
            except TransientCommError:
                out.append(("fail", None))
        return out

    # same rank: identical streams; the other rank's stream is independent
    assert stream(2, 200) == stream(2, 200)
    assert stream(1, 200) != stream(2, 200)
    # a different seed produces a different stream
    other = FaultInjector(FaultPlan(seed=8, transient_send_p=0.3, delay_p=0.3), 4)
    got = []
    for _ in range(200):
        try:
            got.append(("ok", other.on_send(2)))
        except TransientCommError:
            got.append(("fail", None))
    assert got != stream(2, 200)


def test_transient_probability_is_roughly_honored():
    inj = FaultInjector(FaultPlan(seed=0, transient_send_p=0.25), 1)
    fails = 0
    for _ in range(2000):
        try:
            inj.on_send(0)
        except TransientCommError:
            fails += 1
    assert 0.18 < fails / 2000 < 0.32


def test_crash_fires_exactly_at_nth_occurrence_and_disarms():
    plan = FaultPlan(seed=0, crashes=(CrashSpec(rank=1, at="send", n=3),))
    inj = FaultInjector(plan, 2)
    inj.on_send(1)
    inj.on_send(1)
    with pytest.raises(RankKilledError, match="rank 1"):
        inj.on_send(1)
    assert inj.fired_tokens() == {(0, 3)}
    # rank 0 is never affected
    inj2 = FaultInjector(plan, 2)
    for _ in range(10):
        inj2.on_send(0)
    # a restarted incarnation with the token disarmed survives send #3
    inj3 = FaultInjector(plan, 2, disarmed=inj.fired_tokens())
    for _ in range(10):
        inj3.on_send(1)


def test_phase_every_kills_one_seeded_rank_per_boundary():
    plan = FaultPlan(seed=5, crashes=(CrashSpec(rank=None, at="phase", n=None),))

    def victims_for():
        inj = FaultInjector(plan, 4)
        out = {}
        for phase in (1, 2, 3):
            for rank in range(4):
                try:
                    inj.on_phase(rank, phase)
                except RankKilledError:
                    assert phase not in out  # exactly one victim per boundary
                    out[phase] = rank
        return out

    victims = victims_for()
    assert set(victims) == {1, 2, 3}
    assert victims == victims_for()  # seeded choice is reproducible


# -- retry policy ------------------------------------------------------------

def test_retry_policy_backoff_is_capped():
    pol = RetryPolicy(max_retries=10, base_delay=0.001, max_delay=0.004)
    delays = [pol.delay(a) for a in range(1, 11)]
    assert delays[0] == 0.001
    assert delays[1] == 0.002
    assert max(delays) == 0.004
    assert delays == sorted(delays)


def test_transient_send_failures_are_retried_and_counted():
    plan = FaultPlan(seed=3, transient_send_p=0.4)

    def main(comm):
        return [comm.allgather((comm.rank, i)) for i in range(50)]

    res = spmd(2, main, faults=FaultInjector(plan, 2))
    for got in res.values:  # payload order survives retries
        assert got == [[(0, i), (1, i)] for i in range(50)]
    for st in res.stats:
        assert st.retries > 0
        assert st.retries_by_op.get("allgather", 0) == st.retries
        # logical message counts are unaffected by retries
        assert st.by_alg["allgather:dissemination"]["messages"] == 50


def test_exhausted_retries_become_permanent():
    plan = FaultPlan(seed=3, transient_send_p=1.0)  # every attempt fails
    inj = FaultInjector(plan, 2, retry=RetryPolicy(max_retries=2, base_delay=0.0, max_delay=0.0))

    def main(comm):
        for i in range(3):
            comm.allgather(i)

    with pytest.raises(TransientCommError, match="after 2 retries"):
        spmd(2, main, faults=inj, timeout=5.0)


def test_transient_rma_failures_are_retried():
    from repro.runtime import Window

    plan = FaultPlan(seed=1, transient_rma_p=0.4)

    def main(comm):
        peer = (comm.rank + 1) % comm.size
        win = Window(comm, np.zeros(4, dtype=np.int64))
        win.fence()
        for i in range(20):
            win.fetch_and_op(peer, i % 4, 1, op=np.add)
        win.fence()
        total = int(win.local.sum())
        win.fence()  # the peer's puts must not land before the read above
        for i in range(10):
            win.put(peer, i % 4, 100 + i)
        win.fence()
        last = win.local.tolist()
        retries = win.rma_retries
        win.free()
        return total, last, retries

    res = spmd(2, main, faults=FaultInjector(plan, 2))
    for total, last, _ in res.values:
        assert total == 20  # every op landed exactly once
        assert last == [108, 109, 106, 107]
    assert sum(r for _, _, r in res.values) > 0
    for op in ("rma_fetch_and_op", "rma_put"):
        assert any(s.retries_by_op.get(op, 0) > 0 for s in res.stats), op


# -- delays / reordering -----------------------------------------------------

def test_delay_preserves_non_overtaking_within_stream():
    """Heavily delayed traffic must still reach the receiver in program
    order: the broadcast root runs 40 calls ahead, and the receiver still
    takes them one collective instance at a time."""
    plan = FaultPlan(seed=9, delay_p=0.8)

    def main(comm):
        got = [comm.bcast(i if comm.rank == 0 else None, root=0) for i in range(40)]
        comm.barrier()
        return got

    res = spmd(2, main, faults=FaultInjector(plan, 2))
    assert res[1] == list(range(40))


def test_delay_can_reorder_across_streams():
    """Each sender is its own stream into the gather root's any-source
    receive, so heavy delay may interleave them differently from send
    order — the gathered list is still ordered by rank."""
    plan = FaultPlan(seed=2, delay_p=0.9)

    def main(comm):
        return [comm.gather(("x", comm.rank, i), root=0) for i in range(30)]

    res = spmd(4, main, faults=FaultInjector(plan, 4))
    assert res[0] == [[("x", r, i) for r in range(4)] for i in range(30)]


def test_collectives_survive_heavy_delay_and_loss():
    plan = FaultPlan(seed=4, transient_send_p=0.15, delay_p=0.5)

    def main(comm):
        x = comm.allreduce(comm.rank + 1)
        parts = comm.allgather(comm.rank * 10)
        comm.barrier()
        return x, parts

    res = spmd(4, main, faults=FaultInjector(plan, 4))
    for x, parts in res.values:
        assert x == 10
        assert parts == [0, 10, 20, 30]


# -- zero-cost when disabled -------------------------------------------------

def _ring(comm, item):
    """One ring step, as the runtime expresses it: an all-to-all whose only
    nonempty block goes to the right neighbour; returns the left one's."""
    blocks = [None] * comm.size
    blocks[(comm.rank + 1) % comm.size] = item
    return comm.alltoall(blocks)[(comm.rank - 1) % comm.size]


def test_no_injector_means_no_fault_state():
    def main(comm):
        assert _ring(comm, comm.rank) == (comm.rank - 1) % comm.size
        return comm.allreduce(1)

    res = spmd(3, main)
    assert res.values == [3, 3, 3]
    assert all(s.retries == 0 and not s.retries_by_op for s in res.stats)


def test_disabled_injection_overhead_is_negligible():
    """The chaos-off hot path adds only `fabric.faults is None` checks."""
    def main(comm):
        for i in range(300):
            _ring(comm, i)

    t0 = time.perf_counter()
    spmd(2, main)
    base = time.perf_counter() - t0
    assert base < 5.0  # sanity bound; regressions here are order-of-magnitude


def test_fault_events_log_is_deterministic_across_runs():
    """Bit-for-bit: the per-rank injected fault sequences of two runs of
    the same SPMD program under the same (seed, plan) are identical."""
    plan = FaultPlan.parse("transient:p=0.1;delay:p=0.3", seed=123)

    def main(comm):
        for i in range(25):
            _ring(comm, i)
        comm.allreduce(comm.rank)
        return None

    inj_a = FaultInjector(plan, 3)
    spmd(3, main, faults=inj_a)
    inj_b = FaultInjector(plan, 3)
    spmd(3, main, faults=inj_b)
    assert inj_a.events == inj_b.events
    assert any(inj_a.events)  # the plan actually injected something
