"""Wire shape of everything MCM-DIST does *outside* the BFS iteration, and
the bit-equality of the results that shape must not touch.

Sibling of ``test_mcm_iteration_shape.py``: a path-parallel phase is two
barriers on one window that lives for the whole run, a level of the
level-parallel augment is a row all-to-all and a column all-to-all, a
greedy initializer round is a row and a column allgather (its accepts ride
the next propose), the path count needs no reduction and the
job closes on one grid allgather — so the span tests pin, on six grid
shapes, which collectives each of those spans holds and on which
communicator, with the step counts that follow written as ⌈log₂ q⌉ /
(q − 1) arithmetic.  The parity matrix holds mates and counters to a 1x1
run for every initializer × augment mode (the engine's k < 2p² rule, or
either mechanism forced through the ``force_augment`` seam).
"""

import os

import numpy as np
import pytest

from repro.graphs.rmat import er
from repro.matching import ms_bfs_mcm
from repro.matching.augment import choose_augment_mode
from repro.matching.job import launch
from repro.matching.mcm_dist import _mcm_rank_main, relabeled, run_mcm_dist
from repro.runtime import CrashSpec, FaultPlan, RankKilledError
from repro.runtime.checkpoint import Checkpoint, FileCheckpointStore
from repro.sparse import COO, CSC
from repro.sparse.spvec import NULL

GRIDS = [(1, 1), (1, 2), (2, 2), (2, 3), (3, 3), (1, 4)]

#: every phase runs distributed: the shapes pinned here are the distributed
#: schedule's, which the serial tail would cut short
pytestmark = pytest.mark.usefixtures("no_handoff")


def _log2ceil(q):
    return (q - 1).bit_length()


def _traced(pr, pc, **kwargs):
    return run_mcm_dist(er(6, seed=1), pr, pc, trace="ticks", timeout=60, **kwargs)[2]


def _per_rank(trace):
    """Per rank: (all its spans, its ``cat="comm"`` spans in program order,
    the id of the grid communicator — the one the job's closing allgather,
    its last collective, ran on, whatever the sizes of the row and column
    communicators)."""
    for spans in trace.spans:
        comms = sorted((sp for sp in spans if sp.cat == "comm"), key=lambda sp: sp.bseq)
        assert comms[-1].name == "allgather"
        yield spans, comms, comms[-1].args["comm"]


def _inside(span, comms):
    return [c for c in comms if span.bseq < c.bseq < span.eseq]


def _shape(comms):
    return [(c.name, c.args["peers"]) for c in comms]


def _steps(comms):
    return sum(c.args["steps"] for c in comms)


# -- (a) span shape ---------------------------------------------------------------


@pytest.mark.parametrize("pr,pc", GRIDS)
def test_path_phase_is_two_barriers_on_one_window(pr, pc, force_augment):
    p = pr * pc
    force_augment("path")
    stats = _traced(pr, pc, init="none")
    assert stats.augment_path_calls >= 2
    for spans, comms, grid_id in _per_rank(stats.trace):
        phases = [sp for sp in spans if sp.name == "augment:path"]
        assert len(phases) == stats.augment_path_calls
        for ph in phases:
            inside = _inside(ph, comms)
            assert _shape(inside) == [("barrier", p), ("barrier", p)]
            assert {c.args["comm"] for c in inside} == {grid_id}
            assert _steps(inside) == 2 * _log2ceil(p)
        # one window: the broadcast of its id (the matrix's shape rides
        # the scatter); its creation barrier and the two of free() are all
        # that lie outside
        assert sum(c.name == "bcast" for c in comms) == 1
        assert sum(c.name == "barrier" for c in comms) - 2 * len(phases) <= 3
        # every epoch of the run sits on the same window lane
        assert len({sp.args["win"] for sp in spans if sp.name == "rma_epoch"}) == 1


@pytest.mark.parametrize("pr,pc", GRIDS)
def test_level_is_three_row_column_hops(pr, pc, force_augment):
    """A level is two hops now (the name is the three-hop schedule's)."""
    force_augment("level")
    stats = _traced(pr, pc, init="none")
    assert stats.augment_level_calls >= 2 and stats.augment_path_calls == 0
    # the mate_r write to the owner and (c, r) to c's column block, which
    # reads the old mate off the column replica (row hop); (c, r) on to the
    # mate_c owner and the old mate to its home (column hop); the call ends
    # on the row hop that finds no path live
    level = [("alltoall", pc), ("alltoall", pr)]
    per_level = (pc - 1) + (pr - 1)
    for spans, comms, grid_id in _per_rank(stats.trace):
        calls = [sp for sp in spans if sp.name == "augment:level"]
        assert len(calls) == stats.augment_level_calls
        for call in calls:
            inside = _inside(call, comms)
            levels, closing = divmod(len(inside), 2)
            assert levels >= 1 and closing == 1
            assert _shape(inside) == level * levels + level[:1]
            # one row communicator, one column communicator, never the grid's
            ids = [c.args["comm"] for c in inside]
            row, col = ids[0], ids[1]
            assert ids == [row, col] * levels + [row] and grid_id not in {row, col}
            assert _steps(inside) == levels * per_level + (pc - 1)


def _augmenting_paths(lengths, seed=0):
    """Vertex-disjoint paths and the matching that leaves each one
    augmenting: a path of length L is the free root column c₀, then rows
    and columns r₁ c₁ … r_{L−1} c_{L−1} with r_i matched to c_i, then the
    free row r_L, L (row, column) pairs to flip.  Ids are shuffled, so
    consecutive vertices of a path land in different blocks.  Returns the
    matrix, the matching as a phase-0 checkpoint, and the augmented mates."""
    rng = np.random.default_rng(seed)
    n = sum(lengths)
    rid, cid = rng.permutation(n), rng.permutation(n)
    rows, cols = [], []
    mate_r, mate_c = np.full(n, NULL), np.full(n, NULL)
    want_r = np.full(n, NULL)
    at = 0
    for L in lengths:
        r, c = rid[at:at + L], cid[at:at + L]  # r₁ … r_L and c₀ … c_{L−1}
        rows += [*r, *r[:-1]]
        cols += [*c, *c[1:]]
        mate_r[r[:-1]], mate_c[c[1:]] = c[1:], r[:-1]
        want_r[r] = c
        at += L
    coo = COO(n, n, np.array(rows), np.array(cols))
    return coo, Checkpoint(phase=0, mate_row=mate_r, mate_col=mate_c), want_r


@pytest.mark.parametrize("backend", ["thread", "process"])
@pytest.mark.parametrize("pr,pc", [(1, 2), (2, 1), (2, 2), (3, 3)])
def test_level_step_is_a_row_hop_and_a_column_hop(pr, pc, backend, tmp_path, force_augment):
    """A level costs (pc−1) + (pr−1) steps — the old mate is read off the
    column replica where the row hop lands — and the call closes on one
    row hop: L·((pc−1) + (pr−1)) + (pc−1) for paths of length at most L."""
    L = 5
    coo, ck, want_r = _augmenting_paths((L, 2, 1))
    store = FileCheckpointStore(str(tmp_path / "ckpt"))
    store.save(ck)
    force_augment("level")
    mate_r, _, stats = launch(
        _mcm_rank_main, (coo,), pr, pc, checkpoint_store=store, init="none",
        trace="ticks", backend=backend, timeout=60,
    )
    np.testing.assert_array_equal(mate_r, want_r)
    assert stats.augment_level_calls == 1 and stats.iterations == L
    for spans, comms, _ in _per_rank(stats.trace):
        (call,) = [sp for sp in spans if sp.name == "augment:level"]
        assert _steps(_inside(call, comms)) == L * ((pc - 1) + (pr - 1)) + (pc - 1)


@pytest.mark.parametrize("init", ["greedy"])
@pytest.mark.parametrize("pr,pc", GRIDS)
def test_initializer_round_is_three_row_column_allgathers(pr, pc, init):
    """A round is a row and a column allgather, the accepts riding the next
    round's propose, so R rounds are 2R + 1 allgathers and nothing else."""
    stats = _traced(pr, pc, init=init)
    assert stats.initial_cardinality > 0
    rnd, last = [("allgather", pc), ("allgather", pr)], [("allgather", pc)]
    for spans, comms, grid_id in _per_rank(stats.trace):
        (span,) = [sp for sp in spans if sp.name == f"init:{init}"]
        inside = _inside(span, comms)
        assert grid_id not in {c.args["comm"] for c in inside}
        rounds = len(inside) // len(rnd)
        assert rounds >= 2 and _shape(inside) == rnd * rounds + last
        assert _steps(inside) == (rounds + 1) * _log2ceil(pc) + rounds * _log2ceil(pr)


@pytest.mark.parametrize("direction", ["topdown", "auto"])
@pytest.mark.parametrize("pr,pc", GRIDS)
def test_no_grid_reduction_per_phase_level_or_round(pr, pc, direction):
    stats = _traced(pr, pc, direction=direction)
    assert stats.augment_level_calls + stats.augment_path_calls == stats.phases - 1
    for spans, comms, grid_id in _per_rank(stats.trace):
        on_grid = [c for c in comms if c.args["comm"] == grid_id]
        assert not [c for c in on_grid if c.name == "alltoall"]
        in_phases = [
            c for sp in spans if sp.name == "phase"
            for c in _inside(sp, on_grid) if c.name == "allreduce"
        ]
        # no direction votes: each block chooses alone (the default "auto")
        # or never pulls (top-down)
        assert in_phases == []
        # and no other: the job closes on one grid allgather, the edge and
        # word counts riding the mates
        assert not [c for c in on_grid if c.name == "allreduce"]
        assert [c.name for c in on_grid if c.name == "allgather"] == ["allgather"]


# -- (b) results equal a 1x1 run ----------------------------------------------------

#: (init, augment): "auto" is the engine's own rule, "level" / "path" the
#: mechanism forced through the ``force_augment`` seam
VARIANTS = [
    (init, augment)
    for init in ("greedy", "none")
    for augment in ("auto", "level", "path")
]
#: no initializer, so a dozen phases; every one of them path-parallel
NONE_PATH = ("none", "path")
_reference = {}


def _solve(variant, pr, pc, backend, force, **kwargs):
    """A top-down run: its ``edges_examined`` is the same on every grid (a
    pull's depends on the blocks; ``test_direction_blocks`` holds the
    default to these mates)."""
    init, augment = variant
    force(None if augment == "auto" else augment)
    return run_mcm_dist(
        er(6, seed=1), pr, pc, init=init, direction="topdown", backend=backend,
        timeout=60, **kwargs,
    )


def _counts(stats):
    return (stats.phases, stats.iterations, stats.edges_examined,
            stats.initial_cardinality, stats.final_cardinality)


def _reference_run(variant, force):
    """The 1x1 result of a variant, and the path count k of each of its
    augmenting phases (the ``k`` argument of its augment spans)."""
    if variant not in _reference:
        mate_r, mate_c, stats = _solve(variant, 1, 1, "thread", force, trace="ticks")
        ks = [sp.args["k"] for sp in stats.trace.spans[0] if sp.name.startswith("augment:")]
        _reference[variant] = (mate_r, mate_c, stats, ks)
    return _reference[variant]


@pytest.mark.parametrize(
    "pr,pc,backend",
    [(pr, pc, "thread") for pr, pc in GRIDS[1:]]
    + [(pr, pc, "process") for pr, pc in GRIDS[1:4]],
)
def test_results_equal_a_1x1_run(pr, pc, backend, force_augment):
    for variant in VARIANTS:
        ref_r, ref_c, ref, ks = _reference_run(variant, force_augment)
        mate_r, mate_c, stats = _solve(variant, pr, pc, backend, force_augment)
        np.testing.assert_array_equal(mate_r, ref_r, err_msg=str(variant))
        np.testing.assert_array_equal(mate_c, ref_c, err_msg=str(variant))
        assert _counts(stats) == _counts(ref), variant
        # the replicated path count drives the k < 2p² switch: every phase
        # takes the mode the paper's rule gives it on this grid
        augment = variant[1]
        modes = [
            augment if augment != "auto" else choose_augment_mode(k, pr * pc) for k in ks
        ]
        assert stats.augment_level_calls == modes.count("level"), variant
        assert stats.augment_path_calls == modes.count("path"), variant
        if augment == "path":
            assert (stats.rma_ops, stats.rma_words) == (ref.rma_ops, ref.rma_words)
        assert "rma" not in "".join(stats.comm_by_alg)


def test_rma_ops_are_three_per_pair_step(force_augment):
    coo = er(6, seed=1)
    # the serial engine walks the same paths, on the labels the distributed
    # one solves, and records each one's length
    _, _, serial = ms_bfs_mcm(CSC.from_coo(relabeled(coo)[0]), augment_mode="path")
    pair_steps = sum(int(steps.sum()) for steps in serial.augment.path_steps)
    force_augment("path")
    _, _, stats = run_mcm_dist(coo, 2, 3, init="none", timeout=60)
    assert stats.rma_ops == stats.rma_words == 3 * pair_steps > 0


def test_window_reused_across_phases_passes_the_race_verifier(force_augment):
    mate_r, mate_c, stats = _solve(NONE_PATH, 2, 2, "thread", force_augment, verify=True)
    assert stats.augment_path_calls >= 2
    np.testing.assert_array_equal(mate_r, _reference_run(NONE_PATH, force_augment)[0])
    assert stats.verify_summary["rma_ops_checked"] == stats.rma_ops > 0


def test_process_backend_leaves_no_shared_memory_behind(force_augment):
    before = set(os.listdir("/dev/shm"))
    _, _, stats = _solve(NONE_PATH, 2, 2, "process", force_augment)
    assert stats.augment_path_calls >= 2
    assert set(os.listdir("/dev/shm")) == before
    # a rank killed inside the RMA walk never frees the window it holds open
    plan = FaultPlan(seed=0, crashes=(CrashSpec(rank=2, at="rma", n=2),))
    with pytest.raises(RankKilledError, match=r"\[spmd rank 2\]"):
        _solve(NONE_PATH, 2, 2, "process", force_augment, faults=plan)
    assert set(os.listdir("/dev/shm")) == before
