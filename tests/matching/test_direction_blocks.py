"""Step 1's direction is each block's own choice.

Under the default ``direction="auto"`` every block pulls, with no
communication, wherever the pull is expected to read fewer edges than its
top-down explode: :func:`~repro.matching.msbfs.pull_is_cheaper`, whose
estimate caps each unseen row's read at nnz/td, the edges a row walks
before its first frontier column.  Both directions send one candidate per
unseen row with a frontier edge, the same one, and every fold tells each
rank of the grid row the rows it visited, so the mates must be
bit-identical to ``direction="topdown"`` on every graph, grid, backend and
initializer, with the same phases, iterations and communication ledger,
and never more edges examined over the run.  An estimate can miss: a
block-iteration may pull and read more than its explode would have, so
what each block checks is that its choice is the rule's on the inputs it
had, that its mask holds exactly the rows with an edge its grid row has
not visited, and that a pull reads no more than the edges of those rows.
"""

import threading
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.graphs import suite
from repro.graphs.rmat import er, g500
from repro.matching import mcm_dist
from repro.matching.job import launch
from repro.runtime.checkpoint import Checkpoint, CheckpointStore
from repro.sparse import COO
from repro.sparse.spvec import NULL

from ..helpers import coo_from_edges


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
INITS = ["none", "greedy"]


def _expected_read(td, nnz, degrees, unseen):
    """The pull's expected read, exactly: Σ over unseen rows of
    min(degree, nnz/td)."""
    return sum(Fraction(min(int(d) * td, nnz), td) for d in degrees[unseen])


@pytest.fixture
def checked_blocks(monkeypatch):
    """Wrap the engine's direction rule and SpMV so that every block, in
    every iteration, checks that it chose what the rule answers on its own
    block's inputs — the frontier columns' edges, the block's nnz and its
    unseen mask, which covers rows with an edge only — and that a pull read
    no more than the edges of the rows it was handed; returns the list of
    (pulled, edges read) calls.  Forked ranks inherit the wrappers, and a
    failed check fails their job.  On the thread backend, where a rank
    sees the rows its grid row's folds delivered, each also checks that
    its mask is exactly the block rows with an edge that no fold of the
    phase delivered before: no row a block is handed was visited."""
    calls = []
    asked = threading.local()  # the rule's last inputs and answer, per rank
    rule, spmv = mcm_dist.pull_is_cheaper, mcm_dist.spmv_expanded
    # each rank's phase, and per (rank, phase) the rows each of its folds
    # delivered.  A fold returns only once every rank of the grid row has
    # posted it, so by then each peer has recorded its earlier iterations
    phase_of, delivered = {}, {}
    boundary = mcm_dist.phase_boundary

    def marked(grid, stats, phase_no, **kw):
        boundary(grid, stats, phase_no, **kw)
        phase_of[grid.rank] = phase_no
        delivered[grid.rank, phase_no] = []

    def check_mask(A, unseen, rows):
        rank, n = A.grid.rank, phase_of[A.grid.rank]
        mine = delivered[rank, n]
        peers = [(A.grid.i * A.grid.pc + j, n) for j in range(A.grid.pc)]
        if unseen is not None and all(peer in delivered for peer in peers):
            visited = [r for peer in peers for r in delivered[peer][:len(mine)]]
            want = A.block.row_degrees() > 0
            want[np.concatenate([np.empty(0, np.int64), *visited]) - A.row_lo] = False
            np.testing.assert_array_equal(unseen, want, err_msg=f"rank {rank}")
        mine.append(rows)

    def recorded_rule(td, nnz, degrees, unseen):
        answer = rule(td, nnz, degrees, unseen)
        asked.last = (td, nnz, unseen.copy(), answer)
        return answer

    def checked(A, gcols, groots, home=None, unseen=None, pull=False):
        out = spmv(A, gcols, groots, home=home, unseen=unseen, pull=pull)
        check_mask(A, unseen, out[3])
        last, asked.last = getattr(asked, "last", None), None
        if last is not None:  # "auto": the rule chose
            td, nnz, mask, answer = last
            degr = A.block.row_degrees()
            assert td == int(A.block.col_degrees()[gcols - A.col_lo].sum())
            assert nnz == A.block.nnz
            assert degr[mask].all()
            assert pull == answer == (td > 0 and _expected_read(td, nnz, degr, mask) < td)
            if pull:
                np.testing.assert_array_equal(unseen, mask)
        if pull:
            assert out[1] <= int(A.block.row_degrees()[unseen].sum()), (A.grid.rank, out[1])
        calls.append((pull, out[1]))
        return out

    monkeypatch.setattr(mcm_dist, "pull_is_cheaper", recorded_rule)
    monkeypatch.setattr(mcm_dist, "spmv_expanded", checked)
    monkeypatch.setattr(mcm_dist, "phase_boundary", marked)
    return calls


def test_no_frontier_edge_never_pulls():
    degrees = np.array([2, 1, 3])
    for unseen in (np.zeros(3, bool), np.ones(3, bool)):
        assert not mcm_dist.pull_is_cheaper(0, 6, lambda: degrees, unseen)


def test_one_row_of_degree_one():
    # block rows of degree 1 and 5, only the first unseen: E = min(1, 6/td)
    degrees, unseen = np.array([1, 5]), np.array([True, False])
    assert not mcm_dist.pull_is_cheaper(1, 6, lambda: degrees, unseen)  # E = 1, not < 1
    assert mcm_dist.pull_is_cheaper(2, 6, lambda: degrees, unseen)  # E = 1 < 2


def test_rows_above_and_below_the_cap():
    # nnz 33: at td 11 the cap is 3, so E = 1 + 2 + 3 + 3 = 9 < 11 and the
    # block pulls although its unseen rows hold all 33 edges; at td 9 the
    # cap is 11/3 and E = 31/3 ≥ 9
    degrees, unseen = np.array([1, 2, 10, 20]), np.ones(4, bool)
    assert mcm_dist.pull_is_cheaper(11, 33, lambda: degrees, unseen)
    assert not mcm_dist.pull_is_cheaper(9, 33, lambda: degrees, unseen)
    # E = td exactly does not pull: one unseen row of degree 4, nnz 9, cap 3
    degrees, unseen = np.array([4, 5]), np.array([True, False])
    assert not mcm_dist.pull_is_cheaper(3, 9, lambda: degrees, unseen)
    assert mcm_dist.pull_is_cheaper(4, 9, lambda: degrees, unseen)  # E = 9/4


@st.composite
def block_state(draw):
    """A block's row degrees, an unseen mask over its rows with an edge (as
    the engine keeps it) and a frontier edge count td ≤ nnz."""
    degrees = np.array(draw(st.lists(st.integers(0, 12), min_size=1, max_size=40)))
    unseen = np.array(draw(st.lists(st.booleans(), min_size=degrees.size,
                                    max_size=degrees.size))) & (degrees > 0)
    nnz = int(degrees.sum()) + draw(st.integers(0, 30))  # other rows' edges too
    td = draw(st.integers(0, max(nnz, 1)))
    return td, nnz, degrees, unseen


@settings(max_examples=200, deadline=None)
@given(block_state())
def test_count_guard_gives_the_expected_read_answer(state):
    td, nnz, degrees, unseen = state
    exact = td > 0 and _expected_read(td, nnz, degrees, unseen) < td
    assert mcm_dist.pull_is_cheaper(td, nnz, lambda: degrees, unseen) == exact
    if np.count_nonzero(unseen) >= td:  # what the guard settles without E
        assert not exact


@settings(max_examples=200, deadline=None)
@given(block_state())
def test_pulls_wherever_the_unseen_rows_have_fewer_edges(state):
    td, nnz, degrees, unseen = state
    if degrees[unseen].sum() < td:
        assert mcm_dist.pull_is_cheaper(td, nnz, lambda: degrees, unseen)


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
        # one wire for both directions: only the edges read may differ
        assert au.comm_by_alg == td.comm_by_alg, init
        assert (au.frames, au.frame_words) == (td.frames, td.frame_words), init
        assert au.edges_examined <= td.edges_examined, init
        p = pr * pc
        assert td.bottomup_steps == 0 and td.topdown_steps == td.iterations * p
        assert au.topdown_steps + au.bottomup_steps == au.iterations * p
    if backend == "thread" and name == "dense40x45" and pr * pc > 1:
        # the family that makes blocks pull: the wrapper saw some
        assert any(pulled for pulled, _ in checked_blocks)


def test_road_core_never_pulls():
    """On a thin-frontier road graph no block's pull is ever expected to
    read fewer edges than its frontier: "auto" is top-down, count for
    count."""
    coo = FAMILIES["road"]()
    td = mcm_dist.run_mcm_dist(coo, 2, 2, direction="topdown")[2]
    au = mcm_dist.run_mcm_dist(coo, 2, 2)[2]
    assert au.bottomup_steps == 0
    for key in ("edges_examined", "comm_messages", "frames", "frame_words"):
        assert getattr(au, key) == getattr(td, key), key
    assert au.ledger() == td.ledger()
    assert au.comm_by_alg == td.comm_by_alg


def test_a_block_never_pulls_a_row_its_grid_row_visited(monkeypatch):
    """1x2 grid, column blocks {0, 1} and {2, 3}, in the caller's ids (no
    relabel), resumed from a matching row 0 – column 2, row 1 – column 0.

    Iteration 1: free column 3 reaches rows 0 and 1 in block 1.  Row 0 is
    homed in block 1 (its mate, column 2, lies there), and its id reaches
    block 0 through the same fold.  Iteration 2: column 0 (row 1's mate)
    is on block 0's frontier, and block 0 — whose rows with an edge, 0 and
    1, are both visited — pulls nothing: its mask is empty, so it reads no
    edge and sends no candidate for row 0.  The mates are top-down's."""
    edges = [(0, 3), (1, 3), (0, 0), (0, 2), (1, 0), (2, 2)]
    coo = coo_from_edges(3, 4, edges)
    seen = {}
    spmv = mcm_dist.spmv_expanded

    def recorded(A, gcols, groots, home=None, unseen=None, pull=False):
        handed = np.flatnonzero(unseen).tolist()
        out = spmv(A, gcols, groots, home=home, unseen=unseen, pull=pull)
        _, scanned, known, rows, _, _ = out
        seen.setdefault(A.grid.rank, []).append(
            (pull, handed, scanned, sorted(known.tolist()), rows.tolist()))
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
    # block 0, which sends nothing itself yet learns both are visited
    assert seen[1][0][4] == [0] and seen[0][0][2:] == (0, [0, 1], [1])
    # iteration 2: block 0 pulls over an empty mask; block 1 receives only
    # the free row 2 both blocks reach
    assert seen[0][1][:3] == (True, [], 0)
    assert seen[1][1][4] == [2]
    np.testing.assert_array_equal(au_r, td_r)
    np.testing.assert_array_equal(au_c, td_c)
    assert au_r.tolist() == [3, 0, 2]
