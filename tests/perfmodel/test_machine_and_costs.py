"""Machine model and collective cost formula properties."""

import math

import pytest

from repro.perfmodel import EDISON, BspClock, Breakdown, Category, MachineSpec, collectives as C


# -- MachineSpec --------------------------------------------------------------

def test_square_grid_matches_paper_setup():
    """24 cores with 6 threads -> 2x2 grid (the paper's single-node config);
    2048+ cores with 12 threads -> 13x13."""
    g = EDISON.square_grid(24, threads=6)
    assert (g.pr, g.pc, g.threads) == (2, 2, 6)
    assert g.cores == 24
    g = EDISON.square_grid(2048, threads=12)
    assert g.pr == g.pc == int(math.isqrt(2048 // 12))


def test_square_grid_flat_mpi():
    g = EDISON.square_grid(256, threads=1)
    assert (g.pr, g.pc) == (16, 16)
    assert g.nprocs == 256


def test_square_grid_rejects_undersized_allocation():
    with pytest.raises(ValueError):
        EDISON.square_grid(4, threads=12)


def test_comm_params_intra_vs_inter_node():
    a_in, b_in = EDISON.comm_params(nprocs=2, threads=12)   # 24 cores: one node
    a_out, b_out = EDISON.comm_params(nprocs=4, threads=12)  # 48 cores: 2 nodes
    assert a_in == EDISON.alpha_intra and a_out == EDISON.alpha
    assert a_in < a_out
    assert b_in < b_out


def test_compute_time_scales_with_threads():
    t1 = EDISON.compute_time(1e6, threads=1)
    t12 = EDISON.compute_time(1e6, threads=12)
    assert t1 == pytest.approx(12 * t12)


# -- collective cost formulas --------------------------------------------------

A, B = 1e-6, 1e-9


def test_rma_costs():
    assert C.rma_op(A, B) == pytest.approx(A + B)
    assert C.rma_op(A, B, 100) == pytest.approx(A + 100 * B)


def test_single_process_collectives_are_free():
    assert C.allgather_ring(1, A, B, 100) == 0.0
    assert C.alltoallv_pairwise(1, A, B, 100) == 0.0
    assert C.gather_direct(1, A, B, 100) == 0.0
    assert C.barrier_dissemination(1, A) == 0.0


def test_allgather_ring_latency_linear_in_p():
    c4 = C.allgather_ring(4, A, 0.0, 0.0)
    c8 = C.allgather_ring(8, A, 0.0, 0.0)
    assert c8 / c4 == pytest.approx(7 / 3)


def test_alltoallv_latency_dominates_at_scale():
    """INVERT's all-to-all over P processes must cost ~αP latency — the
    strong-scaling bottleneck the paper identifies."""
    p_small, p_large = 16, 1024
    words = 10.0
    small = C.alltoallv_pairwise(p_small, A, B, words)
    large = C.alltoallv_pairwise(p_large, A, B, words)
    assert large / small == pytest.approx((p_large - 1) / (p_small - 1), rel=1e-3)


def test_bcast_reduce_logarithmic():
    assert C.bcast_binomial(1024, A, 0.0, 0.0) == pytest.approx(10 * A)
    assert C.reduce_binomial(1024, A, 0.0, 0.0) == pytest.approx(10 * A)
    assert C.allreduce(1024, A, 0.0, 0.0) == pytest.approx(20 * A)


def test_spmv_phases_use_sqrt_p_communicators():
    """expand/fold run over one grid dimension: costs depend on √P, not P."""
    pr = 8
    exp = C.spmv_expand(pr, A, B, 1000)
    assert exp == C.allgather_ring(pr, A, B, 1000)
    fold = C.spmv_fold(pr, A, B, 1000)
    assert fold == C.alltoallv_pairwise(pr, A, B, 1000)


def test_costs_monotone_in_volume():
    assert C.allgather_ring(8, A, B, 2000) > C.allgather_ring(8, A, B, 1000)
    assert C.alltoallv_pairwise(8, A, B, 2000) > C.alltoallv_pairwise(8, A, B, 1000)
    assert C.gather_direct(8, A, B, 2000) > C.gather_direct(8, A, B, 1000)


# -- BspClock and Breakdown ------------------------------------------------------

def test_clock_accumulates_time_and_breakdown():
    clock = BspClock(EDISON, EDISON.square_grid(96, threads=12))
    d1 = clock.step(Category.SPMV, max_ops=1e6, comm_seconds=1e-3)
    d2 = clock.charge_comm(Category.INVERT, 2e-3)
    assert clock.time == pytest.approx(d1 + d2)
    assert clock.breakdown.seconds(Category.SPMV) == pytest.approx(d1)
    assert clock.breakdown.seconds(Category.INVERT) == pytest.approx(2e-3)
    assert clock.breakdown.entries[Category.SPMV].steps == 1


def test_clock_compute_uses_thread_count():
    g1 = EDISON.square_grid(96, threads=1)
    g12 = EDISON.square_grid(1152, threads=12)  # same process count: 96... (9x9 vs 9x9)
    c1 = BspClock(EDISON, g1)
    c12 = BspClock(EDISON, g12)
    c1.step(Category.SPMV, 1e6, 0.0)
    c12.step(Category.SPMV, 1e6, 0.0)
    assert c1.time == pytest.approx(12 * c12.time)


def test_breakdown_fraction_and_merge():
    b = Breakdown()
    b.charge(Category.SPMV, 3.0, 1.0)
    b.charge(Category.INVERT, 0.0, 1.0)
    assert b.total == pytest.approx(5.0)
    assert b.fraction(Category.SPMV) == pytest.approx(0.8)
    assert b.fraction(Category.PRUNE) == 0.0
    merged = b.merged(b)
    assert merged.total == pytest.approx(10.0)
    assert merged.entries[Category.SPMV].steps == 2


def test_breakdown_table_formats():
    b = Breakdown()
    b.charge(Category.SPMV, 1.0, 0.5)
    table = b.format_table()
    assert "SpMV" in table and "TOTAL" in table


def test_grid_shape_str():
    g = EDISON.square_grid(96, threads=12)
    assert "threads" in str(g)


def test_custom_machine_spec():
    m = MachineSpec(
        name="toy", gamma=1.0, alpha=10.0, beta=0.1,
        alpha_intra=1.0, beta_intra=0.01,
        cores_per_node=4, cores_per_socket=2,
    )
    assert m.comm_params(2, 1) == (1.0, 0.01)
    assert m.comm_params(8, 1) == (10.0, 0.1)
    assert m.compute_time(7.0) == 7.0


# -- collective algorithm dispatch ------------------------------------------------

def test_alltoallv_dispatch_and_bruck_properties():
    # bruck beats pairwise on latency-dominated small messages at scale
    assert C.alltoallv(256, A, B, 1.0, "bruck") < C.alltoallv(256, A, B, 1.0, "pairwise")
    # ... but pays a log-factor on bandwidth-dominated large payloads
    big = 1e9
    assert C.alltoallv_bruck(8, 0.0, B, big) > C.alltoallv_pairwise(8, 0.0, B, big)
    with pytest.raises(ValueError):
        C.alltoallv(4, A, B, 1.0, "carrier-pigeon")


def test_allgather_dispatch():
    assert C.allgather(64, A, B, 10.0, "doubling") < C.allgather(64, A, B, 10.0, "ring")
    # equal bandwidth term: at alpha=0 the two coincide
    assert C.allgather(64, 0.0, B, 10.0, "doubling") == pytest.approx(
        C.allgather(64, 0.0, B, 10.0, "ring")
    )
    with pytest.raises(ValueError):
        C.allgather(4, A, B, 1.0, "semaphore-flags")


def test_single_process_dispatched_collectives_free():
    for algo in ("bruck", "pairwise"):
        assert C.alltoallv(1, A, B, 100.0, algo) == 0.0
    for algo in ("doubling", "ring"):
        assert C.allgather(1, A, B, 100.0, algo) == 0.0


# -- the engine's BFS iteration, pinned to a real ledger -----------------------

@pytest.mark.parametrize("pr,pc", [(2, 2), (2, 3), (1, 4)])
def test_msbfs_iteration_matches_a_real_ledger(pr, pc, no_handoff):
    """``msbfs_iteration`` is two priced exchanges; at (α, β) = (1, 0) it
    is the latency steps every rank's ledger charges inside one ``bfs_iter``
    span of a real run."""
    from repro.graphs.rmat import er
    from repro.matching.mcm_dist import run_mcm_dist

    per_iter = C.msbfs_iteration(pr, pc, 1.0, 0.0, 0.0, 0.0)
    assert per_iter == (pc - 1) + (pr - 1).bit_length()
    # fold + column hop of pr·hop words
    assert C.msbfs_iteration(pr, pc, 0.0, 1.0, 5.0, 3.0) == pytest.approx(
        5.0 + 3.0 * (pr - 1)
    )

    _, _, stats = run_mcm_dist(er(6, seed=1), pr, pc, direction="topdown",
                               trace="ticks", timeout=60)
    for spans in stats.trace.spans:
        def inside(name):
            outer = [sp for sp in spans if sp.name == name]
            return [sp for sp in spans if sp.cat == "comm"
                    and any(o.bseq < sp.bseq < o.eseq for o in outer)]

        assert sum(sp.args["steps"] for sp in inside("bfs_iter")) == (
            stats.iterations * per_iter
        )
        # the fold that ends a phase is the loop test, priced apart from the
        # iterations: one row all-to-all, nothing else
        assert {(sp.name, sp.args["peers"]) for sp in inside("loop_test")} <= {
            ("alltoall", pc)
        }
