"""Wire shape of the MCM-DIST BFS iteration, and the grids where the
replicated block frontier and the row-block mate replica could go wrong.

One iteration is two exchanges — the fold along the grid row, which lands
each row on its home (the rank sitting in its mate's column block; a free
row on every rank of the grid row), and a column hop to the next frontier,
the path ends riding along — so its cost is countable: the span tests pin,
on six grid shapes, which collectives an iteration holds and on which
communicator, and the ledger tests pin the step counts that follow.  The
column hop's counts cover one grid column, so the fold's counts end every
phase: the corner tests pin that loop test.  The frontier is kept expanded
(identical down each grid column), so the bit-equality matrix covers
``rowcomm`` and ``colcomm`` of different sizes, degenerate 1-wide grids,
empty blocks, every Step-1 direction and both backends; the corner tests add a free row reached from two column blocks at once, a
row block left entirely free, a resume from a checkpoint and a corrupted
row or column replica under ``verify=True``.  The fingerprints at the
bottom are the results on the end-to-end benchmark's and the
``BENCH_spmd.json`` inputs, next to this schedule's latency steps per rank:
the default (relabeled) run's, and the parent schedule's on the inputs' own
ids, which must not move.  The span, ledger, replica and fingerprint tests
run every phase distributed (the ``no_handoff`` seam); the bit-equality
matrix and the corners run the default, serial tail included.
"""

import itertools
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.graphs import suite
from repro.graphs.rmat import er
from repro.matching.job import launch
from repro.matching.mcm_dist import _mcm_rank_main, relabeled, run_mcm_dist
from repro.perfmodel.collectives import msbfs_iteration
from repro.sparse import COO

from ..conftest import walk_everywhere
from ..helpers import topdown_edges

GRIDS = [(1, 1), (1, 2), (2, 2), (2, 3), (3, 3), (1, 4)]


def _log2ceil(p):
    return (p - 1).bit_length()


def _total(stats, field, op=""):
    return sum(d[field] for k, d in stats.comm_by_alg.items() if k.startswith(op))


def _span_comms(trace, name):
    """Every ``name`` span of every rank as the list of ``cat="comm"``
    spans it encloses, in program order."""
    out = []
    for spans in trace.spans:
        comms = sorted((sp for sp in spans if sp.cat == "comm"), key=lambda sp: sp.bseq)
        for it in (sp for sp in spans if sp.name == name):
            out.append([c for c in comms if it.bseq < c.bseq < it.eseq])
    return out


def _shape(comms):
    return [(c.name, c.args["peers"]) for c in comms]


def _bfs_phases(stats, coo):
    """Phases that ran a BFS: all but a last one that began with every
    column matched (its frontier is empty, so it folds nothing)."""
    return stats.phases - (stats.final_cardinality == coo.ncols)


# -- (a) span and ledger shape ---------------------------------------------------


@pytest.mark.parametrize("pr,pc", GRIDS)
def test_iteration_is_two_exchanges(pr, pc, no_handoff):
    p = pr * pc
    coo = er(6, seed=1)
    # no initializer: every all-to-all of the job is a BFS one or a hop of
    # a level-parallel augment
    _, _, stats = run_mcm_dist(
        coo, pr, pc, init="none", direction="topdown", trace="ticks", timeout=60,
    )
    assert stats.iterations > 5 and stats.augment_level_calls == stats.phases - 1

    # the α-β formula at (α, β) = (1, 0) is the iteration's latency steps
    per_iter = msbfs_iteration(pr, pc, 1.0, 0.0, 0.0, 0.0)
    assert per_iter == (pc - 1) + _log2ceil(pr)
    iters = _span_comms(stats.trace, "bfs_iter")
    assert len(iters) == p * stats.iterations
    for comms in iters:
        # no grid-communicator call is left in the loop
        assert _shape(comms) == [("alltoall", pc), ("allgather", pr)]
        assert sum(c.args["steps"] for c in comms) == per_iter

    # the only all-to-alls outside an iteration are the loop tests' folds,
    # exactly one per phase that ran a BFS, and the augments' hops
    tests = _span_comms(stats.trace, "loop_test")
    assert len(tests) == p * _bfs_phases(stats, coo)
    assert all(_shape(comms) == [("alltoall", pc)] for comms in tests)
    augments = _span_comms(stats.trace, "augment:level")
    assert len(augments) == p * stats.augment_level_calls
    assert {c.name for comms in augments for c in comms} == {"alltoall"}
    assert _total(stats, "steps", "alltoall") == (
        (p * stats.iterations + len(tests)) * (pc - 1)
        + sum(c.args["steps"] for comms in augments for c in comms)
    )


#: K(2,2) from the empty matching.  Phase 1: both rows pick column 0 (the
#: minimum parent), so it augments (row 0, column 0).  Phase 2 is one tree,
#: rooted at column 1: it reaches free row 1 — its path end — and matched
#: row 0, whose mate, column 0, is its only next-frontier entry, pruned
#: (before the column hop on the ranks of row 0's grid row, after it on
#: the others).  Phase 3 begins with both columns matched.
K22 = COO(2, 2, np.array([0, 0, 1, 1]), np.array([0, 1, 0, 1]))


def _loop_tests(pr, pc, coo=K22):
    _, _, stats = run_mcm_dist(
        coo, pr, pc, init="none", direction="topdown", trace="ticks", timeout=60,
    )
    return stats, _span_comms(stats.trace, "loop_test")


@pytest.mark.parametrize("pr,pc", [(1, 2), (2, 1), (2, 2)])
def test_a_last_hop_of_pruned_trees_costs_one_fold(pr, pc, no_handoff):
    ref_r, ref_c, ref = run_mcm_dist(K22, 1, 1, init="none", timeout=60)
    mate_r, mate_c, _ = run_mcm_dist(K22, pr, pc, init="none", timeout=60)
    np.testing.assert_array_equal(mate_r, ref_r)
    np.testing.assert_array_equal(mate_c, ref_c)

    stats, tests = _loop_tests(pr, pc)
    assert (stats.phases, stats.iterations) == (ref.phases, ref.iterations) == (3, 2)
    # one empty fold per rank and BFS phase, in its own span, outside every
    # iteration: the count riding it is the only word to each row peer
    assert [_shape(comms) for comms in tests] == [[("alltoall", pc)]] * (2 * pr * pc)
    assert all(c.args["words"] == pc - 1 for comms in tests for c in comms)


@pytest.mark.parametrize("pr,pc", [(1, 1), (1, 2), (2, 2), (2, 3)])
@pytest.mark.parametrize("name", ["K22", "er6"])
def test_every_bfs_phase_ends_on_one_loop_test(name, pr, pc, no_handoff):
    coo = K22 if name == "K22" else er(6, seed=1)
    stats, tests = _loop_tests(pr, pc, coo=coo)
    assert stats.iterations > 0
    assert len(tests) == pr * pc * _bfs_phases(stats, coo)


def _setup_allreduce_calls(coo, pr, pc):
    _, _, stats = run_mcm_dist(coo, pr, pc, init="none", direction="topdown", timeout=60)
    # every allreduce of a top-down run is set-up or tear-down
    return _total(stats, "calls", "allreduce") // (pr * pc), stats.iterations


def test_allreduce_calls_do_not_grow_with_iterations():
    single = COO(5, 2, np.array([3]), np.array([1]))
    few, it_few = _setup_allreduce_calls(single, 2, 3)
    many, it_many = _setup_allreduce_calls(er(6, seed=1), 2, 3)
    assert it_many > 3 * it_few
    assert many == few


def test_logical_ledger_ignores_aggregation():
    coo = er(6, seed=1)
    on = run_mcm_dist(coo, 2, 3, timeout=60)[2]
    with walk_everywhere():
        off = run_mcm_dist(coo, 2, 3, timeout=60)[2]
    assert on.comm_by_alg == off.comm_by_alg
    assert on.comm_messages == off.comm_messages == off.frames
    assert on.frames < off.frames


# -- (b) bit-equality across grids, directions, backends -----------------------


def _rect():
    rng = np.random.default_rng(11)
    return COO(3, 7, rng.integers(0, 3, 15), rng.integers(0, 7, 15), dedup=False)


INPUTS = {
    "er7": lambda: er(7, seed=1),
    "rect3x7": _rect,
    "empty": lambda: COO(4, 5, np.zeros(0, np.int64), np.zeros(0, np.int64)),
    "single": lambda: COO(5, 2, np.array([3]), np.array([1])),
    "road": lambda: suite.load_scaled("road_usa", target_nnz=2000, seed=1)[0],
}
#: "bottomup" is an all-pull run: "auto" under the ``force_pull`` seam
DIRECTIONS = ("topdown", "bottomup", "auto")
_reference = {}


def _solve(name, pr, pc, backend, direction, force_pull):
    mate_r, mate_c, stats = run_mcm_dist(
        INPUTS[name](), pr, pc, direction=force_pull(direction), backend=backend, timeout=60,
    )
    return mate_r, mate_c, (stats.phases, stats.iterations), topdown_edges(stats, pr * pc)


@pytest.mark.parametrize("backend", ["thread", "process"])
@pytest.mark.parametrize("pr,pc", GRIDS[1:])
@pytest.mark.parametrize("name", sorted(INPUTS))
def test_results_equal_across_grids(name, pr, pc, backend, force_pull):
    edges = {}
    for direction in DIRECTIONS:
        key = (name, direction)
        if key not in _reference:
            _reference[key] = _solve(name, 1, 1, "thread", direction, force_pull)
        ref_r, ref_c, ref_counts, ref_edges = _reference[key]
        mate_r, mate_c, counts, edges[direction] = _solve(
            name, pr, pc, backend, direction, force_pull)
        np.testing.assert_array_equal(mate_r, ref_r, err_msg=direction)
        np.testing.assert_array_equal(mate_c, ref_c, err_msg=direction)
        assert counts == ref_counts, direction
    # top-down reads every frontier edge once on any grid, the serial tail
    # counted once; a pull stops at its own block's first frontier column,
    # so it reads what the grid gives it, and "auto" never more than
    # top-down
    assert edges["topdown"] == _reference[(name, "topdown")][3]
    assert edges["auto"] <= edges["topdown"]


def test_crash_every_phase_on_2x3_recovers_the_mates(tmp_path):
    from repro.runtime.checkpoint import FileCheckpointStore
    from repro.runtime.faults import FaultPlan

    coo = er(6, seed=1)
    mr_ok, mc_ok, st_ok = run_mcm_dist(coo, 2, 3, timeout=60)
    mr, mc, st = run_mcm_dist(
        coo, 2, 3,
        faults=FaultPlan.parse("crash:rank=any,at=phase:every", seed=5),
        checkpoint_store=FileCheckpointStore(tmp_path / "ckpt"),
        max_restarts=30,
        timeout=60,
    )
    assert st.restarts >= st_ok.phases - 1
    np.testing.assert_array_equal(mr_ok, mr)
    np.testing.assert_array_equal(mc_ok, mc)
    assert st.final_cardinality == st_ok.final_cardinality


# -- (c) the corners the home fold creates ------------------------------------

#: From the empty matching the first frontier is every column, and row 0 —
#: free — is reached from columns 0 and 3, two column blocks on any grid
#: with pc > 1, in the same iteration: every rank of its grid row must reduce
#: the same two candidates to the same π, which the augment then reads.
FREE_TWICE = COO(4, 4, np.array([0, 0, 1, 1, 2, 2, 3]), np.array([0, 3, 0, 1, 1, 2, 3]))
#: Rows 4..7 are adjacent to columns 0..3, row r < 4 to column r and row 0
#: to column 4 as well.  Phase 1 matches row r to column r; phase 2's one
#: path (column 4, row 0, column 0, row 4) ends in rows 4..7 — a row block
#: with no match at all on a 2-row grid (rows 6..7 on a 3-row one).
BLOCK_FREE = COO(
    8, 5,
    np.array([0, 1, 2, 3, 0, *np.repeat(np.arange(4, 8), 4)]),
    np.array([0, 1, 2, 3, 4, *np.tile(np.arange(4), 4)]),
)
CORNERS = {"free_twice": FREE_TWICE, "block_free": BLOCK_FREE}


def run_in_id_order(coo, pr, pc, **kwargs):
    """MCM-DIST on ``coo``'s own ids: the rank body launched as
    :func:`run_mcm_dist` launches it, without the relabeling in front."""
    return launch(_mcm_rank_main, (coo,), pr, pc, **kwargs)


@pytest.mark.parametrize(
    "pr,pc,backend",
    [(pr, pc, "thread") for pr, pc in [(1, 2), (2, 1), (2, 2), (3, 2), (2, 3)]]
    + [(2, 2, "process"), (3, 2, "process")],
)
@pytest.mark.parametrize("name", sorted(CORNERS))
def test_home_fold_corners_equal_a_1x1_run(name, pr, pc, backend):
    coo = CORNERS[name]
    for init, direction in itertools.product(("none", "greedy"), ("topdown", "auto")):
        # each corner is built in these ids
        kw = dict(init=init, direction=direction, timeout=60)
        ref_r, ref_c, ref = run_in_id_order(coo, 1, 1, **kw)
        mate_r, mate_c, st = run_in_id_order(coo, pr, pc, backend=backend, **kw)
        msg = f"init={init} direction={direction}"
        np.testing.assert_array_equal(mate_r, ref_r, err_msg=msg)
        np.testing.assert_array_equal(mate_c, ref_c, err_msg=msg)
        assert (st.phases, st.iterations) == (ref.phases, ref.iterations), msg
        # a pull's edges depend on the blocks; top-down's do not
        if direction == "topdown":
            assert topdown_edges(st, pr * pc) == ref.edges_examined, msg
    assert ref.phases >= 2


@pytest.mark.parametrize("backend", ["thread", "process"])
def test_resume_into_a_later_phase_rebuilds_the_replica(tmp_path, backend, no_handoff):
    from repro.runtime.checkpoint import FileCheckpointStore
    from repro.runtime.faults import FaultPlan

    coo = er(6, seed=1)
    ref_r, ref_c, ref = run_mcm_dist(coo, 1, 1, init="none", timeout=60)
    assert ref.phases > 3
    mate_r, mate_c, st = run_mcm_dist(
        coo, 2, 2, init="none", backend=backend, timeout=60,
        faults=FaultPlan.parse("crash:rank=any,at=phase:3", seed=0),
        checkpoint_store=FileCheckpointStore(tmp_path / "ckpt"), max_restarts=2,
    )
    # died entering phase 3, resumed from phase 2's snapshot: nothing replayed
    assert st.restart_spans == ((0, 3),) and st.phases_replayed == 0
    np.testing.assert_array_equal(mate_r, ref_r)
    np.testing.assert_array_equal(mate_c, ref_c)
    assert st.final_cardinality == ref.final_cardinality


def test_verify_names_a_stale_mate_replica(monkeypatch, no_handoff):
    from repro.matching import mcm_dist

    coo = er(6, seed=1)
    kw = dict(init="none", timeout=10)
    plain = run_mcm_dist(coo, 2, 2, **kw)[2]
    # the check costs no communication: a clean verified run's ledger is
    # the unverified one's
    verified = run_mcm_dist(coo, 2, 2, verify=True, **kw)[2]
    assert verified.comm_by_alg == plain.comm_by_alg

    # with no initializer the engine's only row allgathers are the
    # refreshes; rank 3 loses the first update it sends itself, so one
    # replica entry keeps its old mate.  The engine solves the relabeled
    # input; the error names the row by the caller's id
    allgather = mcm_dist.allgather_arrays

    def drop_one(comm, *arrays):
        pieces = allgather(comm, *arrays)
        own = pieces[comm.rank]
        if comm.global_rank == 3 and own[0].size and not dropped:
            pieces[comm.rank] = tuple(a[1:] for a in own)
            dropped.append(int(own[0][0]))
        return pieces

    dropped = []
    monkeypatch.setattr(mcm_dist, "allgather_arrays", drop_one)
    with pytest.raises(RuntimeError, match=r"rank 3, phase 2: .* for row (\d+), its owner"
                       ) as err:
        run_mcm_dist(coo, 2, 2, verify=True, **kw)
    row_perm = relabeled(coo)[1]
    assert f"for row {int(np.flatnonzero(row_perm == dropped[0])[0])}," in str(err.value)


def test_verify_names_a_stale_column_replica(monkeypatch, no_handoff):
    from repro.matching import mcm_dist

    coo = er(6, seed=1)
    kw = dict(init="none", timeout=10)
    plain = run_mcm_dist(coo, 2, 2, **kw)[2]
    # the check costs no communication: a clean verified run's ledger is
    # the unverified one's
    verified = run_mcm_dist(coo, 2, 2, verify=True, **kw)[2]
    assert verified.comm_by_alg == plain.comm_by_alg

    # the column replica's updates ride each phase's first column hop; rank
    # 3 loses the first one it sends (the first phase after an augment
    # flipped a column it owns), so that column keeps its old mate in the
    # replica.  The error names the column by the caller's id
    hop_down_column = mcm_dist.hop_down_column

    def drop_one(A, cols, roots, ends, *riders):
        if A.grid.comm.global_rank == 3 and riders[0].size and not dropped:
            dropped.append(int(riders[0][0]))
            riders = tuple(a[1:] for a in riders)
        return hop_down_column(A, cols, roots, ends, *riders)

    dropped = []
    monkeypatch.setattr(mcm_dist, "hop_down_column", drop_one)
    with pytest.raises(RuntimeError, match=r"rank 3, phase \d+: the column-block mate "
                       r"replica holds .* for column (\d+), its owner's mate_c") as err:
        run_mcm_dist(coo, 2, 2, verify=True, **kw)
    col_perm = relabeled(coo)[2]
    assert f"for column {int(np.flatnonzero(col_perm == dropped[0])[0])}," in str(err.value)


# -- (d) the parent schedule's results on the end-to-end benchmark's inputs ----

E2E = Path(__file__).resolve().parents[2] / "benchmarks" / "e2e"
ROAD = ("4ea672d81d8b29f511b3dad5c89354d05a304109ddfad2792cbef9e6cf336d48",
        (9, 408, 141_177, 5_840))
#: the results on the inputs' own ids, then this schedule's latency steps
#: per rank, every phase augmenting level-parallel (961 / 634 / 169 while
#: phases of k < 2p² paths walked them one-sidedly, two fences each;
#: 1,020 / 641 / 208 while a level step was three hops, every
#: phase expanded its first frontier, a greedy round was three allgathers
#: and the job opened on a header broadcast and closed on an allreduce and
#: two allgathers; before that 1,453 / 1,218 / 241 — each iteration paid a
#: row hop beside the fold and the column hop, and each augment level four
#: hops)
PARENT_FINGERPRINTS = [
    pytest.param("mcm_deep_t4", 2, 2, *ROAD, 1_641, id="road-2x2"),
    pytest.param("mcm_deep_t4", 1, 2, *ROAD, 834, id="road-1x2"),
    pytest.param(
        "mcm_bulk_t4", 2, 2,
        "c3161e8eb5b7fe7382b39361063e94a6baf6bec9e3e93832d8aaea452bf32c7d",
        (9, 35, 4_520_751, 32_832), 175, id="er15-2x2",
    ),
]


@pytest.fixture(scope="module")
def e2e_workloads():
    """``benchmarks/e2e/workloads.py`` — the seeded inputs and the digest."""
    sys.path.insert(0, str(E2E))
    try:
        import workloads
    finally:
        sys.path.remove(str(E2E))
    yield workloads
    sys.modules.pop("workloads", None)


def _fingerprint(e2e_workloads, solve, workload, pr, pc, sha, counts, steps):
    inst = e2e_workloads.build(workload, seed=1)
    mate_r, mate_c, stats = solve(inst.coo, pr, pc, backend="thread", timeout=60)
    assert e2e_workloads.digest(mate_r, mate_c) == sha
    assert (
        stats.phases, stats.iterations, stats.edges_examined, stats.final_cardinality
    ) == counts
    assert _total(stats, "steps") == pr * pc * steps


@pytest.mark.parametrize("workload,pr,pc,sha,counts,steps", PARENT_FINGERPRINTS)
def test_id_order_reproduces_parent_fingerprints(e2e_workloads, workload, pr, pc, sha,
                                                 counts, steps, no_handoff):
    # the parent schedule reads every frontier edge: no block pulls
    def solve(coo, pr, pc, **kw):
        return run_in_id_order(coo, pr, pc, direction="topdown", **kw)

    _fingerprint(e2e_workloads, solve, workload, pr, pc, sha, counts, steps)


#: the default run on the same inputs: the road core's staircase is gone
#: (9 → 5 phases, 408 → 89 iterations) and the ER core, random already,
#: draws a cheaper instance (9 → 7 phases, 35 → 24 iterations).  Latency
#: steps per rank 381 / 198 / 135 with every phase on the grid (267 / 173 /
#: 135 while small-k phases augmented one-sidedly; 306 / 181 / 172 with the
#: three-hop level step and the schedule around the loop named above); the
#: shipped rule hands the road core off after phase 1's BFS.  On the ER core the
#: wide last levels pull where that is expected to read fewer edges
#: (3,168,366 edges examined top-down; 927,912 while a block could pull a
#: row another block of its grid row had visited; 1,500,647 when a block
#: pulled only where its unseen rows' whole adjacency was smaller); on the
#: road core no block ever pulls
RELABELED_ROAD = ("d03154f77207efa32f250c75fa249fe1b5fb42c2c23416c58917964291c53ad5",
                  (5, 89, 47_630, 5_840))
FINGERPRINTS = [
    pytest.param("mcm_deep_t4", 2, 2, *RELABELED_ROAD, 381, id="road-2x2"),
    pytest.param("mcm_deep_t4", 1, 2, *RELABELED_ROAD, 198, id="road-1x2"),
    pytest.param(
        "mcm_bulk_t4", 2, 2,
        "d8198654c0268f9ae57ef9c2dbd5f97df347d5bd5ad4130d5fa485f30993b0ed",
        (7, 24, 825_647, 32_832), 135, id="er15-2x2",
    ),
]


@pytest.mark.parametrize("workload,pr,pc,sha,counts,steps", FINGERPRINTS)
def test_parent_fingerprints(e2e_workloads, workload, pr, pc, sha, counts, steps,
                             no_handoff):
    _fingerprint(e2e_workloads, run_mcm_dist, workload, pr, pc, sha, counts, steps)


#: the ``BENCH_spmd.json`` runs (``direction="auto"``): mates digest, then
#: phases, iterations, edges examined, bottom-up block-iterations and level
#: augment calls, on both backends.  er:9 3x3
#: hands off to the serial tail after phase 1's BFS, and the tail retraces
#: that phase's paths level-parallel (1 level call; phase 1 walked them with
#: 30 one-sided operations while the hand-off waited for the augmentation):
#: its 5 iterations read 3,358 edges on each of the 9 ranks, and one of
#: them pulls on each (7,205 edges, 68,322 in all, while the tail read
#: top-down); 18 of phase 1's 27 block-iterations pull (every phase
#: distributed: 7,408 edges, 27 of 72 block-iterations pulling, 3
#: path-parallel phases and 48 one-sided operations; 10,419
#: edges and 18 when a block pulled only where its unseen rows' whole
#: adjacency was smaller; 9,813 edges and 2 grid-wide bottom-up iterations
#: when a grid vote chose for all blocks; 16,764 top-down); on er:7 2x2,
#: whose last phase starts with every column matched, 4 of 8 (1,328 edges
#: and none before), and its one augmenting phase is a level call (it was
#: path-parallel, 12 one-sided operations, while the engine switched on
#: k < 2p²).  498 and 33,699 edges while a block could pull a row another
#: block of its grid row had visited
BENCH_FINGERPRINTS = [
    pytest.param(
        7, 2, 2, "c34170076df42172b0fca99b72534ba475f505467088719ddca76ba8742af972",
        (2, 2, 453, 4, 1), id="er7-2x2",
    ),
    pytest.param(
        9, 3, 3, "ccc5db37a4504660df6bc7f520a68e09a4dfc3118ba432190c0e0f4d1dc9a86b",
        (4, 8, 32_983, 27, 1), id="er9-3x3",
    ),
]


@pytest.mark.parametrize("backend", ["thread", "process"])
@pytest.mark.parametrize("scale,pr,pc,sha,counts", BENCH_FINGERPRINTS)
def test_bench_runs_reproduce_parent_fingerprints(e2e_workloads, scale, pr, pc, sha,
                                                  counts, backend):
    mate_r, mate_c, st = run_mcm_dist(
        er(scale, seed=1), pr, pc, direction="auto", backend=backend, timeout=60
    )
    assert e2e_workloads.digest(mate_r, mate_c) == sha
    assert (st.phases, st.iterations, st.edges_examined, st.bottomup_steps,
            st.augment_level_calls) == counts
