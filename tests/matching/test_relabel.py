"""The engine-side relabeling of MCM-DIST (the paper's Section IV-A).

``run_mcm_dist`` solves its input with rows and columns pseudo-randomly
relabeled (:func:`repro.matching.mcm_dist.relabeled`) and maps the mates
back: the result must be a maximum matching *in the caller's labels*,
identical on every grid shape and backend.  The relabeling is keyed by
local structure and the order within it, so splicing isolated edges into
the input leaves the work alone.  Snapshots hold relabeled mates, so each
carries the seed, and a store written under another seed — or before the
engine relabeled — is refused.
"""

import numpy as np
import pytest

from repro.graphs import suite
from repro.graphs.rmat import er
from repro.matching import hopcroft_karp
from repro.matching.job import launch
from repro.matching.mcm_dist import RELABEL_SEED, _mcm_rank_main, relabeled, run_mcm_dist
from repro.matching.validate import cardinality, is_valid_matching
from repro.runtime import FileCheckpointStore
from repro.runtime.checkpoint import Checkpoint
from repro.sparse import COO, CSC
from repro.sparse.spvec import NULL

from ..helpers import topdown_edges


def random_coo(n1, n2, m, seed):
    rng = np.random.default_rng(seed)
    return COO(n1, n2, rng.integers(0, n1, m), rng.integers(0, n2, m))


def road():
    return suite.load_scaled("road_usa", target_nnz=2000, seed=1)[0]


INPUTS = {
    "square": lambda: random_coo(40, 40, 220, 3),
    "wide": lambda: random_coo(7, 50, 90, 4),
    "tall": lambda: random_coo(50, 7, 90, 5),
    "rect": lambda: random_coo(30, 45, 160, 6),
    "road": road,
}


@pytest.mark.parametrize("name", sorted(INPUTS))
def test_mates_are_a_maximum_matching_in_the_callers_labels(name):
    coo = INPUTS[name]()
    a = CSC.from_coo(coo)
    mate_r, mate_c, stats = run_mcm_dist(coo, 2, 2, timeout=60)
    assert is_valid_matching(a, mate_r, mate_c)
    assert cardinality(mate_r) == cardinality(hopcroft_karp(a)[0])
    assert stats.final_cardinality == cardinality(mate_r)


_reference = {}


@pytest.mark.parametrize("backend", ["thread", "process"])
@pytest.mark.parametrize("pr,pc", [(1, 2), (2, 2), (3, 2)])
@pytest.mark.parametrize("name", ["rect", "road"])
def test_mates_are_identical_across_grids_and_backends(name, pr, pc, backend):
    for direction in ("auto", "topdown"):
        key = (name, direction)
        if key not in _reference:
            _reference[key] = run_mcm_dist(
                INPUTS[name](), 1, 1, direction=direction, backend="thread", timeout=60
            )
        ref_r, ref_c, ref = _reference[key]
        mate_r, mate_c, stats = run_mcm_dist(
            INPUTS[name](), pr, pc, direction=direction, backend=backend, timeout=60
        )
        np.testing.assert_array_equal(mate_r, ref_r, err_msg=direction)
        np.testing.assert_array_equal(mate_c, ref_c, err_msg=direction)
        assert (stats.phases, stats.iterations) == (ref.phases, ref.iterations), direction
    # what a pull reads depends on the blocks; what top-down reads does
    # not, the serial tail counted once
    assert topdown_edges(stats, pr * pc) == ref.edges_examined


def test_the_relabeling_breaks_the_road_graphs_locality_order():
    # the generator's order leaves the initializer a staircase matching
    # with long augmenting paths; the relabeled input does not
    coo = road()
    own = launch(_mcm_rank_main, (coo,), 2, 2, timeout=60)[2]
    rel = run_mcm_dist(coo, 2, 2, timeout=60)[2]
    assert rel.final_cardinality == own.final_cardinality
    assert rel.iterations < own.iterations


def _splice(core: COO, k: int, seed: int) -> COO:
    """``core`` with ``k`` isolated edges at seeded ids, the relative order
    of the core's vertices kept."""
    rng = np.random.default_rng(seed)
    n1, n2 = core.nrows + k, core.ncols + k
    new_r = np.sort(rng.choice(n1, k, replace=False))
    new_c = np.sort(rng.choice(n2, k, replace=False))
    old_r = np.setdiff1d(np.arange(n1), new_r)
    old_c = np.setdiff1d(np.arange(n2), new_c)
    return COO(n1, n2, np.concatenate([old_r[core.rows], new_r]),
               np.concatenate([old_c[core.cols], new_c]))


@pytest.mark.parametrize("name", ["rect", "road"])
def test_splicing_isolated_edges_leaves_the_work_alone(name):
    core = INPUTS[name]()
    runs = [run_mcm_dist(_splice(core, 8, seed), 2, 2, timeout=60)[2] for seed in (1, 2, 3)]
    first = runs[0]
    assert first.final_cardinality == cardinality(hopcroft_karp(CSC.from_coo(core))[0]) + 8
    for st in runs[1:]:
        assert (st.phases, st.iterations, st.edges_examined, st.comm_messages) == (
            first.phases, first.iterations, first.edges_examined, first.comm_messages
        )
    # the relabeled core is the same matrix whichever ids the splice took
    cores = []
    for seed in (1, 2, 3):
        spliced = _splice(core, 8, seed)
        rel, rp, cp = relabeled(spliced)
        isolated_r = np.bincount(spliced.rows, minlength=spliced.nrows) == 1
        isolated_c = np.bincount(spliced.cols, minlength=spliced.ncols) == 1
        keep = ~(isolated_r[spliced.rows] & isolated_c[spliced.cols])
        cores.append(set(zip(rp[spliced.rows[keep]].tolist(), cp[spliced.cols[keep]].tolist())))
    assert cores[0] == cores[1] == cores[2]


def test_snapshots_carry_the_seed_and_a_matching_store_resumes(tmp_path):
    coo = er(7, seed=1)
    plain_r, plain_c, plain = run_mcm_dist(coo, 2, 2, timeout=60)
    store = FileCheckpointStore(str(tmp_path / "ck"))
    run_mcm_dist(coo, 2, 2, checkpoint_store=store, timeout=60)
    assert int(store.latest().aux["relabel"]) == RELABEL_SEED
    # the store resumes from the last snapshot: a maximum matching already,
    # so the run ends where the plain one did, and the counters it carries
    # report the job that wrote it
    mate_r, mate_c, stats = run_mcm_dist(coo, 2, 2, checkpoint_store=store, timeout=60)
    np.testing.assert_array_equal(mate_r, plain_r)
    np.testing.assert_array_equal(mate_c, plain_c)
    assert stats.initial_cardinality == plain.initial_cardinality < cardinality(plain_r)


@pytest.mark.parametrize("aux", [None, {"relabel": np.array(RELABEL_SEED + 1)}],
                         ids=["unstamped", "other-seed"])
def test_a_store_written_under_another_seed_is_refused(tmp_path, aux):
    coo = er(6, seed=2)
    store = FileCheckpointStore(str(tmp_path / "ck"))
    free = np.full(coo.nrows, NULL), np.full(coo.ncols, NULL)
    store.save(Checkpoint(phase=1, mate_row=free[0], mate_col=free[1], aux=aux))
    held = None if aux is None else RELABEL_SEED + 1
    with pytest.raises(ValueError, match=rf"seed {held}\b.*seed {RELABEL_SEED}\b"):
        run_mcm_dist(coo, 2, 2, checkpoint_store=store, timeout=60)
