"""Step 1's direction is each block's own choice.

Under the default ``direction="auto"`` every block pulls, with no
communication, wherever its rows not yet seen visited have fewer edges than
its frontier columns.  Both directions post the same fold, so the mates must
be bit-identical to ``direction="topdown"`` on every graph, grid, backend and
initializer, with the same phases and iterations and never more words or
edges examined — and no block, in any iteration, may read more edges than
its top-down explode would.
"""

import numpy as np
import pytest

from repro.graphs import suite
from repro.graphs.rmat import er, g500
from repro.matching import mcm_dist
from repro.matching.job import launch
from repro.runtime.checkpoint import Checkpoint, CheckpointStore
from repro.sparse import COO
from repro.sparse.spvec import NULL


def _random(n1, n2, m, seed):
    rng = np.random.default_rng(seed)
    return COO(n1, n2, rng.integers(0, n1, m), rng.integers(0, n2, m))


FAMILIES = {
    "er7": lambda: er(7, seed=1),
    "g500": lambda: g500(scale=7, seed=2),
    "road": lambda: suite.load_scaled("road_usa", target_nnz=1500, seed=1)[0],
    "dense40x45": lambda: _random(40, 45, 700, 5),
    "rect90x30": lambda: _random(90, 30, 400, 8),
}
GRIDS = [(1, 1), (1, 2), (2, 1), (2, 2), (2, 3), (3, 3)]
INITS = ["none", "greedy", "mindegree", "karp-sipser"]


@pytest.fixture
def checked_blocks(monkeypatch):
    """Wrap the engine's SpMV so that every block, in every iteration,
    checks that it read no more edges than a top-down explode of its
    frontier; returns the list of (pulled, edges read) calls.  Forked ranks
    inherit the wrapper, and a failed check fails their job."""
    calls = []
    spmv = mcm_dist.spmv_expanded

    def checked(A, gcols, groots, home=None, unseen=None):
        out = spmv(A, gcols, groots, home=home, unseen=unseen)
        td = int(A.block.col_degrees()[gcols - A.col_lo].sum())
        assert out[1] <= td, (A.grid.rank, out[1], td)
        calls.append((unseen is not None, out[1]))
        return out

    monkeypatch.setattr(mcm_dist, "spmv_expanded", checked)
    return calls


def _counts(stats):
    return stats.phases, stats.iterations, stats.initial_cardinality


@pytest.mark.parametrize(
    "pr,pc,backend",
    [(pr, pc, "thread") for pr, pc in GRIDS] + [(pr, pc, "process") for pr, pc in GRIDS[1:]],
)
@pytest.mark.parametrize("name", sorted(FAMILIES))
def test_default_direction_equals_topdown(name, pr, pc, backend, checked_blocks):
    coo = FAMILIES[name]()
    for init in INITS:
        td_r, td_c, td = mcm_dist.run_mcm_dist(
            coo, pr, pc, init=init, direction="topdown", backend=backend, timeout=60
        )
        au_r, au_c, au = mcm_dist.run_mcm_dist(
            coo, pr, pc, init=init, backend=backend, timeout=60
        )
        np.testing.assert_array_equal(au_r, td_r, err_msg=init)
        np.testing.assert_array_equal(au_c, td_c, err_msg=init)
        assert _counts(au) == _counts(td), init
        assert au.total_words <= td.total_words, init
        assert au.edges_examined <= td.edges_examined, init
        p = pr * pc
        assert td.bottomup_steps == 0 and td.topdown_steps == td.iterations * p
        assert au.topdown_steps + au.bottomup_steps == au.iterations * p
    if backend == "thread" and name == "dense40x45" and pr * pc > 1:
        # the family that makes blocks pull: the wrapper saw some
        assert any(pulled for pulled, _ in checked_blocks)


def test_road_core_never_pulls():
    """On a thin-frontier road graph no block's unseen rows ever have fewer
    edges than its frontier: "auto" is top-down, count for count."""
    coo = FAMILIES["road"]()
    td = mcm_dist.run_mcm_dist(coo, 2, 2, direction="topdown")[2]
    au = mcm_dist.run_mcm_dist(coo, 2, 2)[2]
    assert au.bottomup_steps == 0
    for key in ("edges_examined", "total_words", "comm_messages", "frames", "frame_words"):
        assert getattr(au, key) == getattr(td, key), key
    assert au.comm_by_alg == td.comm_by_alg


def test_a_block_pulls_a_row_another_block_visited(monkeypatch):
    """1x2 grid, column blocks {0, 1} and {2, 3}, in the caller's ids (no
    relabel), resumed from a matching row 0 – column 2, row 1 – column 0.

    Iteration 1: free column 3 reaches rows 0 and 1 in block 1.  Row 0 is
    homed in block 1 (its mate, column 2, lies there), so block 0 never
    hears of it.  Iteration 2: column 0 (row 1's mate) is on block 0's
    frontier, and block 0 — whose one unseen edge, row 0's, is fewer than
    column 0's two — pulls row 0 again.  Its home drops the candidate;
    the mates are top-down's."""
    edges = [(0, 3), (1, 3), (0, 0), (0, 2), (1, 0), (2, 2)]
    coo = COO.from_edges(3, 4, edges)
    seen = {}
    spmv = mcm_dist.spmv_expanded

    def recorded(A, gcols, groots, home=None, unseen=None):
        out = spmv(A, gcols, groots, home=home, unseen=unseen)
        _, _, sent, rows, _, _ = out
        seen.setdefault(A.grid.rank, []).append((unseen is not None, sent.tolist(), rows.tolist()))
        return out

    def solve(direction):
        store = CheckpointStore()
        store.save(Checkpoint(
            phase=0, mate_row=np.array([2, 0, NULL]), mate_col=np.array([1, NULL, 0, NULL]),
        ))
        return launch(
            mcm_dist._mcm_rank_main, (coo,), 1, 2, checkpoint_store=store,
            backend="thread", direction=direction,
        )

    td_r, td_c, _ = solve("topdown")
    monkeypatch.setattr(mcm_dist, "spmv_expanded", recorded)
    au_r, au_c, au = solve("auto")
    # iteration 1: row 0 reaches its home, block 1, and row 1 its home,
    # block 0, which sends nothing itself
    assert seen[1][0][2] == [0] and seen[0][0] == (False, [], [1])
    # iteration 2: block 0 pulls and sends row 0 again; block 1 receives it
    # (its home drops it) beside the free row 2 both blocks reach
    assert seen[0][1][:2] == (True, [0])
    assert seen[1][1][2] == [0, 2]
    np.testing.assert_array_equal(au_r, td_r)
    np.testing.assert_array_equal(au_c, td_c)
    assert au_r.tolist() == [3, 0, 2]
