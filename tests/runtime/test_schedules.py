"""The round schedules as pure data: matched, uniform in length, and in
agreement with the closed-form α-β costs that ``simulate/costsim.py``
prices the paper's runs with.  No ``spmd`` anywhere — every check simulates
all p ranks in lockstep straight from the lists."""

import pytest

from repro.perfmodel import collectives as C
from repro.runtime.comm import ReduceOp, _doubling_fold
from repro.runtime.schedules import (
    LEFT,
    REPLACE,
    binomial,
    dissemination,
    doubling,
    pairwise,
    swap,
)

SIZES = range(1, 18)
CONCAT = ReduceOp("concat", lambda a, b: a + b)  # associative, NOT commutative


def _schedules(p):
    """Every (name, per-rank schedule list, latency rounds of the matching
    closed form with α = 1, β = 0) at communicator size ``p``."""
    yield "dissemination", [dissemination(p, r) for r in range(p)], \
        C.barrier_dissemination(p, 1.0)
    yield "allgather", [swap(dissemination(p, r)) for r in range(p)], \
        C.allgather_recursive_doubling(p, 1.0, 0.0, 1.0)
    yield "doubling", [doubling(p, r) for r in range(p)], \
        C.allreduce_recursive_doubling(p, 1.0, 0.0, 1.0)
    yield "pairwise", [pairwise(p, r) for r in range(p)], \
        C.alltoallv_pairwise(p, 1.0, 0.0, 1.0)
    for root in range(p):
        bcast = [binomial(p, r, root) for r in range(p)]
        yield f"bcast@{root}", bcast, C.bcast_binomial(p, 1.0, 0.0, 1.0)
        yield f"reduce@{root}", [swap(s)[::-1] for s in bcast], \
            C.reduce_binomial(p, 1.0, 0.0, 1.0)


@pytest.mark.parametrize("p", SIZES)
def test_schedules_are_matched_uniform_and_as_long_as_the_closed_form(p):
    for name, per_rank, latency in _schedules(p):
        nrounds = {len(s) for s in per_rank}
        assert nrounds == {int(latency)}, (name, nrounds, latency)
        for t in range(int(latency)):
            sends = {(r, s[t][0]) for r, s in enumerate(per_rank) if s[t][0] is not None}
            recvs = {(s[t][1], r) for r, s in enumerate(per_rank) if s[t][1] is not None}
            assert sends == recvs, (name, t)
            assert all(0 <= d < p and d != r for r, d in sends), (name, t)


@pytest.mark.parametrize("p", SIZES)
def test_pairwise_meets_every_ordered_pair_once(p):
    for r in range(p):
        assert sorted(d for d, _ in pairwise(p, r)) == [d for d in range(p) if d != r]
        assert sorted(s for _, s in pairwise(p, r)) == [s for s in range(p) if s != r]


@pytest.mark.parametrize("p", SIZES)
def test_dissemination_reaches_everyone(p):
    # after the last round every rank has (transitively) heard from all p
    heard = [{r} for r in range(p)]
    per_rank = [dissemination(p, r) for r in range(p)]
    for t in range(len(per_rank[0])):
        snapshot = [set(h) for h in heard]
        for r, s in enumerate(per_rank):
            heard[r] |= snapshot[s[t][1]]
    assert all(h == set(range(p)) for h in heard)


@pytest.mark.parametrize("p", SIZES)
def test_doubling_fold_is_the_tree_the_schedule_evaluates(p):
    """Run the doubling schedule on one-letter strings under concatenation
    (order-sensitive): every rank must end with the same string, and it
    must be what the aggregated hub's ``_doubling_fold`` computes."""
    vals = [chr(ord("a") + r) for r in range(p)]
    acc = list(vals)
    per_rank = [doubling(p, r) for r in range(p)]
    for t in range(len(per_rank[0])):
        sent = list(acc)  # everyone sends before anyone receives
        for r, s in enumerate(per_rank):
            _, src, side = s[t]
            if src is None:
                continue
            if side == REPLACE:
                acc[r] = sent[src]
            elif side == LEFT:
                acc[r] = CONCAT(sent[src], acc[r])
            else:
                acc[r] = CONCAT(acc[r], sent[src])
    want = _doubling_fold(vals, CONCAT)
    assert acc == [want] * p
    assert sorted(want) == vals  # every contribution exactly once


@pytest.mark.parametrize("p", SIZES)
def test_binomial_bcast_delivers_once_and_reduce_consumes_once(p):
    for root in range(p):
        per_rank = [binomial(p, r, root) for r in range(p)]
        nrounds = len(per_rank[0])
        # bcast: a rank forwards only after it holds the payload, and
        # receives it exactly once
        has = {root}
        received = [0] * p
        for t in range(nrounds):
            newly = set()
            for r, s in enumerate(per_rank):
                dst, src = s[t]
                if dst is not None:
                    assert r in has, (root, t, r)
                if src is not None:
                    received[r] += 1
                    newly.add(r)
            has |= newly
        assert has == set(range(p))
        assert received == [0 if r == root else 1 for r in range(p)]
        # reduce: multiset fold — a rank is silent once it has sent
        acc = [[r] for r in range(p)]
        done = set()
        up = [swap(s)[::-1] for s in per_rank]
        for t in range(nrounds):
            sent = [list(a) for a in acc]
            for r, s in enumerate(up):
                dst, src = s[t]
                assert not (r in done and (dst is not None or src is not None))
                if src is not None:
                    acc[r] = acc[r] + sent[src]
            done |= {r for r, s in enumerate(up) if s[t][0] is not None}
        assert sorted(acc[root]) == list(range(p))
        assert done == set(range(p)) - {root}
