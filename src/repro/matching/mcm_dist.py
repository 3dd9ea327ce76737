"""MCM-DIST: the true SPMD distributed implementation of Algorithm 2.

Every function here runs *per rank* under the simulated MPI runtime: state
is rank-local (DCSC block, vector slices), all coordination goes through
collectives on the row and column communicators (the grid communicator
carries only the job's set-up, its one closing allgather or the tail's
gather, and checkpoints); no one-sided communication runs.  The code would
run unchanged over mpi4py.

Correspondence to the paper:

====================================  =========================================
paper                                  here
====================================  =========================================
Algorithm 2 (MCM-DIST)                 :func:`mcm_dist_spmd`
Step 1 SpMV, expand                    none: the frontier of column block j
                                       stays *expanded* — sorted (column, root)
                                       arrays, identical down grid column j;
                                       each phase's first is read off the
                                       block's free-column bitmap, which the
                                       phase's path roots leave
Step 1 SpMV, local + fold              :func:`repro.distmat.ops.spmv_expanded`
                                       — exchange 1, ``rowcomm`` all-to-all to
                                       each row's *home*, the rank of its grid
                                       row sitting in its mate's column block
                                       (a free row to every rank of the grid
                                       row), read off ``mate_blk``, row block
                                       i's ``mate_r`` replicated along grid
                                       row i and refreshed by one ``rowcomm``
                                       allgather per phase; its frames carry
                                       the block-frontier sizes, summed the
                                       global frontier size
Step 1, direction-optimized            the same call, pulling early-exit over
                                       the block rows with an edge that no
                                       block of the grid row has visited — the
                                       fold tells every rank of the grid row
                                       what it visited; under
                                       ``direction="auto"`` each block pulls
                                       alone wherever that is expected to read
                                       fewer of its edges
                                       (:func:`~repro.matching.msbfs.pull_is_cheaper`)
                                       — no vote, both directions post the
                                       one fold, word for word
Step 2 SELECT                          before the fold, in either direction:
                                       a block sends candidates for those
                                       unvisited rows only
Steps 3–4 SET/split                    local NumPy at home: π is a row-block
                                       array, a matched row's entry current at
                                       its home, a free row's on every rank of
                                       the grid row
Step 7 INVERT to next frontier         none for the mate hop: a matched row's
                                       (mate, root) pair is made at home, in
                                       its column block — then
                                       :func:`repro.distmat.ops.hop_down_column`
                                       — exchange 2, ``colcomm`` allgather that
                                       rebuilds the expanded frontier
Step 5 INVERT to ``path_c``            no collective of its own: the (root, min
                                       row) pairs of the free rows
                                       (:func:`~repro.distmat.ops.path_ends`)
                                       are the grid row's on each of its ranks
                                       and ride exchange 2 to every rank; a
                                       root's first iteration wins
Step 6 PRUNE (allgather of roots)      a filter on root before the column hop
                                       (the grid row's trees) and after it (the
                                       grid's) — exact, a hop keeps the root
loop test (frontier non-empty)         no collective: the counts riding the
                                       fold — so every phase ends on one empty
                                       fold
path count k (an allreduce)            no collective: the distinct roots
                                       exchange 2 replicated
Algorithm 3 (level-parallel augment)   :func:`augment_level_spmd` — a level is
                                       a row hop and a column hop, (pc−1) +
                                       (pr−1) steps where the paper's two
                                       INVERTs pay 2(p−1) + a reduction: the
                                       old mate is read off ``mate_cblk``,
                                       column block j's ``mate_c`` replicated
                                       down grid column j, whose updates ride
                                       each phase's first exchange 2
Algorithm 4 (path-parallel RMA)        none: every phase augments
                                       level-parallel, and no window opens
k < 2p² switch                         none: it chose paths for small k, and
                                       small-k phases hand off to the serial
                                       tail (DESIGN §17); the serial engine
                                       keeps both mechanisms and the rule
                                       (:mod:`repro.matching.augment`)
gather onto one node (§VI-E, Fig. 9)   the tail hand-off, asked after each
                                       phase's BFS: once the job's steps so
                                       far (this phase's augmentation priced
                                       in by :func:`augment_cost`) and the
                                       augmentation a hand-off skips outprice
                                       one grid allgather of the DCSC blocks,
                                       mates and π plus one read of every
                                       edge (:func:`tail_is_cheaper`, ski
                                       rental), every rank builds the whole
                                       CSC from the gathered blocks, retraces
                                       the phase's paths on the gathered π
                                       (:func:`~repro.matching.augment.augment_level_parallel`)
                                       and finishes alone
                                       (:func:`~repro.matching.msbfs.mcm_phase_loop`),
                                       each iteration pulling where the
                                       blocks' rule would; no collective
                                       follows the gather but the hand-off
                                       snapshot's barrier
distributed maximal matching [21]      :func:`proposal_rounds_spmd` — greedy
                                       only (the serial engine keeps
                                       Karp-Sipser and dynamic mindegree for
                                       Fig. 3): a round is a row and a column
                                       allgather, its accepts riding the next
                                       propose
====================================  =========================================

One BFS iteration is therefore two exchanges and (pc−1) + ⌈log₂ pr⌉
latency steps, none of them on the grid communicator — where the paper's
schedule (§IV-B: two INVERTs over all p ranks, a grid-wide PRUNE
allgather) pays ≈ 2p.  Every phase pays one more fold, which is the loop
test, not an iteration, and one row-replica refresh.
Mates, phases and iterations are those of the paper's schedule, bit for
bit, and so are the edges examined where no block pulls (the serial
tail's counted once);
:func:`repro.perfmodel.collectives.msbfs_iteration` prices the engine's
iteration, :mod:`repro.simulate.costsim` keeps pricing the paper's (DESIGN
"MCM-DIST iteration anatomy").  The phase boundary follows the same rule —
a grid-wide exchange becomes a row exchange plus a column exchange, and
what every rank must know rides an exchange that happens anyway: outside
the BFS loop no personalized all-to-all and no per-phase, per-level or
per-round reduction runs on the grid communicator (DESIGN "Phase anatomy").

The driver :func:`run_mcm_dist` launches the whole job on a pr×pc grid of
simulated ranks and returns globally assembled mate vectors: a job that
hands off has them from the tail's gather, one that does not closes on
one grid allgather of the mate slices, and neither collective carries a
counter.  What the engine does around its phase loop — launch and
recovery, the counters' sums, the checkpoint write and ledger — is the
job shell it shares with MWM-DIST (:mod:`repro.matching.job`).
"""

from __future__ import annotations

import numpy as np

from ..distmat.distvec import BlockVec, DistDenseVec
from ..distmat.grid import ProcGrid
from ..distmat.ops import (
    allgather_arrays,
    concat_pieces,
    hop,
    hop_down_column,
    path_ends,
    spmv_expanded,
)
from ..distmat.spmat import DistBlockMatrix, DistSparseMatrix
from ..kernels import advance_cursor
from ..runtime.checkpoint import Checkpoint, CheckpointStore
from ..runtime.comm import Communicator
from ..runtime.trace import tspan
from ..sparse import permute
from ..sparse.coo import COO
from ..sparse.csc import CSC
from ..sparse.semiring import reduce_candidates
from ..sparse.spvec import NULL
from ..perfmodel.machine import EDISON
from .augment import augment_level_parallel
from .job import (
    DistStats,
    JobSteps,
    launch,
    phase_boundary,
    save_checkpoint,
    snapshot_ledger,
    tail_is_cheaper,
)
from .msbfs import MatchingStats, mcm_phase_loop, pull_is_cheaper


# ---------------------------------------------------------------------------
# the distributed maximal-matching initializer (the matrix-algebraic rounds of [21])
# ---------------------------------------------------------------------------

_EMPTY = np.empty(0, np.int64)


def _best(idx: np.ndarray, key: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """One (vertex, key) candidate per distinct vertex — its minimum key;
    vertices ascending."""
    idx, key, _ = reduce_candidates(idx, key, key)
    return idx, key


def proposal_rounds_spmd(
    A: DistSparseMatrix,
    mate_r: DistDenseVec,
    mate_c: DistDenseVec,
    mate_cblk: BlockVec,
) -> tuple[int, int]:
    """Round-synchronous greedy maximal matching from the EMPTY matching,
    SPMD: every free row proposes to its minimum free column, and every
    proposed column accepts its minimum proposing row.  Returns the global
    number of pairs matched and the edges this rank's cursor read.

    Rank (i, j) replicates the free-row bitmap of row block i (identical
    along grid row i) and ``mate_cblk``, column block j's ``mate_c``
    (identical down grid column j; its free entries are the block's
    free-column bitmap).  One round is two packed allgathers, neither of
    them on the grid communicator:

    1. **propose** (grid row) — each free row's minimum free column of the
       block, read by one lookahead cursor per row into the block's
       row-major mirror (a matched column stays matched, so a cursor never
       steps back: :func:`~repro.kernels.advance_cursor`); allgathered along
       the row, every rank keeps each row's minimum, its proposal.  The
       last round's accepted pairs of this row block, and the column
       block's accept count, ride along: the row bitmap and the owners'
       ``mate_r`` are updated, the counts sum to the last round's global
       match count on every rank, and the rows they matched drop their
       proposals — a proposal is per row, so that is the round it would
       have made.
    2. **resolve** (grid column) — the rank sitting in the proposed column's
       block contributes the proposal; every rank of the column keeps each
       column's minimum row, which fills ``mate_cblk`` and the vector
       owners' ``mate_c``.

    The loop ends on the propose whose counts sum to zero — a round that
    matched nothing, which is exactly maximality — so R rounds cost 2R + 1
    allgathers.
    """
    grid, blk = A.grid, A.block
    free_r = np.ones(blk.nrows, dtype=bool)
    row_ptr, col_idx = blk.csr_mirror()
    cursor = row_ptr[:-1].copy()
    # this rank's accepts not sent yet: (rows, columns, count), the count
    # empty before the first round
    unsent = (_EMPTY,) * 3
    total = edges = 0
    while True:
        # 1. propose, the last round's accepts riding along
        lrows, key, read = advance_cursor(
            row_ptr, col_idx, cursor, np.flatnonzero(free_r), mate_cblk.local != NULL
        )
        edges += read
        key += A.col_lo
        pieces = allgather_arrays(grid.rowcomm, lrows + A.row_lo, key, *unsent)
        rows, key, arows, acols, accepts = concat_pieces(pieces)
        if accepts.size:
            matched = int(accepts.sum())
            if matched == 0:
                return total, edges
            total += matched
            free_r[arows - A.row_lo] = False
            own = (arows >= mate_r.lo) & (arows < mate_r.hi)
            mate_r.set_local(arows[own], acols[own])
            open_row = free_r[rows - A.row_lo]
            rows, key = rows[open_row], key[open_row]
        rows, pcols = _best(rows, key)

        # 2. resolve
        mine = (pcols >= A.col_lo) & (pcols < A.col_hi)
        pieces = allgather_arrays(grid.colcomm, pcols[mine], rows[mine])
        wcols, wrows = _best(*concat_pieces(pieces))
        mate_cblk.set_local(wcols, wrows)
        own = (wcols >= mate_c.lo) & (wcols < mate_c.hi)
        mate_c.set_local(wcols[own], wrows[own])
        here = (wrows >= A.row_lo) & (wrows < A.row_hi)
        unsent = (wrows[here], wcols[here], np.array([wcols.size], np.int64))


# ---------------------------------------------------------------------------
# augmentation
# ---------------------------------------------------------------------------

def augment_level_spmd(
    A: DistSparseMatrix,
    start_rows: np.ndarray,
    pi: BlockVec,
    mate_r: DistDenseVec,
    mate_c: DistDenseVec,
    mate_cblk: BlockVec,
) -> None:
    """Algorithm 3, SPMD: all paths advance one (row, column) pair per
    lockstep level.  A level's tips are rows r held where π[r] is current:
    the first level's — the path ends, free rows — at their ``mate_r``
    owners, later ones at their homes.  A level is two exchanges
    (:func:`~repro.distmat.ops.hop`):

    1. a row hop carrying the write ``mate_r[r] = π[r]`` to r's owner and
       (c = π[r], r) to the rank sitting in c's column block, which reads
       the old mate r′ — the next level's tip — off ``mate_cblk``, its
       column block's ``mate_c`` as the phase began (c lies on one path
       only, so no earlier level flipped it);
    2. a column hop carrying (c, r) to c's ``mate_c`` owner, which flips the
       column's mate, and r′ to its home (rowblock(r′), colblock(c)), where
       π[r′] is current: c was r′'s mate all phase.

    The live count rides the frames: hop 2 sums the next tips over the grid
    column, the next row hop sums those sums over the grid row — the whole
    grid — so the call ends on the one row hop that finds it zero."""
    grid = A.grid
    rows = np.asarray(start_rows, np.int64)
    live = 1  # the first level has tips on some rank: the phase found paths
    while True:
        cols = pi.get_local(rows)
        live, wrows, wcols, cols, rows = hop(
            grid.rowcomm, live,
            (mate_r.vmap.owner(rows)[0], rows, cols),
            (A.colmap.owner(cols), cols, rows),
        )
        if live == 0:
            return
        mate_r.set_local(wrows, wcols)
        prev = mate_cblk.get_local(cols)
        prev = prev[prev != NULL]
        live, cols, rows, prev = hop(
            grid.colcomm, prev.size,
            (mate_c.vmap.owner(cols)[0], cols, rows),
            (A.rowmap.owner(prev), prev),
        )
        mate_c.set_local(cols, rows)
        rows = prev


def augment_cost(depth: np.ndarray, pr: int, pc: int) -> int:
    """A phase's augmentation priced before it runs, from replicated
    numbers: its latency steps on a rank's ledger.  ``depth`` holds each
    path's length in (row, column) pairs, the iteration its end was found
    in.  A level is a row hop and a column hop, and the call ends on the
    row hop that finds no tip: h·((pc−1)+(pr−1)) + (pc−1) steps for the
    longest path's h."""
    return int(depth.max()) * (pc - 1 + pr - 1) + pc - 1


# ---------------------------------------------------------------------------
# phase-granular checkpointing
# ---------------------------------------------------------------------------

#: the counters a snapshot carries (``aux["counts"]``), summed over the
#: ranks: the first three are replicated, so rank 0 alone contributes them,
#: and a resumed rank 0 takes them all back — a restarted job reports the
#: fault-free job's counters
_COUNTED = ("iterations", "augment_level_calls", "initial_cardinality", "edges_examined",
            "init_edges", "bottomup_steps")


def _checkpoint(grid: ProcGrid, store: CheckpointStore, phase: int, mate_r: DistDenseVec,
                mate_c: DistDenseVec, counts: np.ndarray, stats: DistStats,
                aux: "dict[str, np.ndarray] | None", rent: JobSteps) -> None:
    """Snapshot the globally assembled matching after a completed phase
    (the assembly is two allgathers on the grid communicator, this rank's
    ``counts`` riding the first; the write protocol is
    :func:`~repro.matching.job.save_checkpoint`), stamped with the caller's
    ``aux``, the job's counters summed over the ranks and the steps it has
    paid (``rent``, which the snapshot's own collectives stay out of)."""
    aux = dict(aux or {})
    with tspan(grid.comm, "checkpoint", cat="phase", phase=phase), rent.checkpoint(aux):
        pieces = grid.comm.allgather((mate_r.lo, mate_r.local, counts))
        aux["counts"] = sum(piece[2] for piece in pieces)
        ck = Checkpoint(phase, mate_r.assemble([piece[:2] for piece in pieces]),
                        mate_c.to_global(), aux)
        save_checkpoint(grid, store, ck, stats)


# ---------------------------------------------------------------------------
# the SPMD algorithm
# ---------------------------------------------------------------------------

def _stale(owner: DistDenseVec, replica: BlockVec) -> tuple[np.ndarray, np.ndarray]:
    """The (index, value) pairs where the owner's slice — which lies inside
    the replica's block — differs from the replica: what the replica's
    next refresh must carry."""
    own = replica.local[owner.lo - replica.lo:owner.hi - replica.lo]
    diff = np.flatnonzero(own != owner.local)
    return diff + owner.lo, owner.local[diff]


def _check_replica(
    grid: ProcGrid, phase: int, owner: DistDenseVec, replica: BlockVec,
    labels: "np.ndarray | None",
) -> None:
    """``verify=True``'s self-check of a refreshed replica, free: a rank's
    vector slice lies inside its block, so it compares the two without
    communication and names the first index that differs (by its caller's
    label, ``labels[index]``, when given)."""
    bad, mates = _stale(owner, replica) if grid.comm.fabric.verify else (_EMPTY, _EMPTY)
    if bad.size:
        g = int(bad[0])
        label = g if labels is None else int(labels[g])
        kind, name = ("row", "mate_r") if owner.orient == "row" else ("column", "mate_c")
        raise RuntimeError(
            f"rank {grid.rank}, phase {phase}: the {kind}-block mate replica holds "
            f"{replica.get_local(g)} for {kind} {label}, its owner's {name} {mates[0]}"
        )


def _refresh_replica(
    grid: ProcGrid, phase: int, mate_r: DistDenseVec, mate_blk: BlockVec,
    row_labels: "np.ndarray | None",
) -> None:
    """Bring ``mate_blk`` — row block i's ``mate_r``, replicated along grid
    row i — up to date with one ``rowcomm`` allgather of the (row, mate)
    pairs where an owner's slice differs from it: the initializer's or the
    checkpoint's matches at the first phase, the last phase's augmentations
    at every later one."""
    pieces = allgather_arrays(grid.rowcomm, *_stale(mate_r, mate_blk))
    mate_blk.set_local(*concat_pieces(pieces))
    _check_replica(grid, phase, mate_r, mate_blk, row_labels)


def _global_csc(A: DistBlockMatrix, pieces: list) -> CSC:
    """The whole matrix from every rank's ``(jc, cp, ir, ...)`` block, in
    rank order, without a sort: rank order visits a column block's row
    blocks top-down, so appending each block's column segment keeps rows
    ascending within every column.  Each piece's block arrays are dropped
    once placed."""
    pc = A.grid.pc
    cols = [jc + A.colmap.range(r % pc)[0] for r, (jc, *_) in enumerate(pieces)]
    indptr = np.zeros(A.ncols + 1, np.int64)
    for c, (_, cp, *_) in zip(cols, pieces):
        indptr[c + 1] += np.diff(cp)
    np.cumsum(indptr, out=indptr)
    indices = np.empty(indptr[-1], np.int64)
    fill = indptr[:-1].copy()
    for r, c in enumerate(cols):
        _, cp, ir, *_ = pieces[r]
        counts = np.diff(cp)
        at = np.repeat(fill[c] - cp[:-1], counts)
        at += np.arange(ir.size)
        indices[at] = ir + A.rowmap.range(r // pc)[0]
        fill[c] += counts
        pieces[r] = None
    return CSC(A.nrows, A.ncols, indptr, indices)


def _prune(ends: tuple, cols: np.ndarray, roots: np.ndarray) -> tuple:
    """Step 6 PRUNE as a filter: the (column, root) entries whose tree has
    none of the (root, row) path ``ends``."""
    keep = ~np.isin(roots, ends[0]) if ends[0].size else slice(None)
    return cols[keep], roots[keep]


def mcm_dist_spmd(
    comm: Communicator,
    coo_on_root: "COO | None",
    pr: int,
    pc: int,
    *,
    init: str = "greedy",
    direction: str = "auto",
    checkpoint_every: int = 0,
    checkpoint_store: "CheckpointStore | None" = None,
    resume: "Checkpoint | None" = None,
    checkpoint_aux: "dict[str, np.ndarray] | None" = None,
    row_labels: "np.ndarray | None" = None,
    col_labels: "np.ndarray | None" = None,
) -> tuple[np.ndarray, np.ndarray, DistStats]:
    """The per-rank body of MCM-DIST (launch via :func:`run_mcm_dist`).

    ``coo_on_root`` is the input matrix on rank 0 (None elsewhere);
    ``direction`` is "auto" or "topdown" — under "auto" every block pulls
    alone, without communication, whenever the pull is expected to read
    fewer edges than its frontier columns hold
    (:func:`~repro.matching.msbfs.pull_is_cheaper`), and so does every
    iteration of the serial tail; the mate vectors are identical in both
    modes.  The engine augments every phase level-parallel
    (:func:`augment_level_spmd`), PRUNEs every iteration and reduces
    candidates under minParent.  After every BFS
    that found paths, :func:`tail_is_cheaper` prices the job's latency
    steps so far (:class:`~repro.matching.job.JobSteps`), this phase's
    augmentation included (:func:`augment_cost`), and the augmentation a
    hand-off would skip against gathering the graph and π: once it fires,
    the grid does not augment — every rank applies the phase's paths
    itself and finishes on the same serial phases (``stats.tail_*``).
    Returns (globally gathered mate_r, mate_c, stats) on every rank.

    Checkpoint/restart (driven by :func:`~repro.matching.job.launch`, which
    passes a store only when the caller gave one or allowed restarts): with
    ``checkpoint_store`` set, the job snapshots the globally assembled
    mate vectors after the initializer, after every
    ``checkpoint_every``-th completed phase and, inside the tail, after the
    phase that hands off, whose serial phases write none — each completed
    phase is a valid matching, so any snapshot is a correct restart point.
    Every snapshot carries the job's counters (:data:`_COUNTED`) and the
    steps it has paid, so a restarted job hands off where the fault-free
    one does and reports its counters.  Without a store no
    checkpoint collective runs at all.  With ``resume`` set, the
    initializer is skipped and the phase loop continues from the
    checkpointed matching.  ``checkpoint_aux`` rides every snapshot as its
    ``aux`` (:func:`run_mcm_dist` stamps its relabel seed there), and
    ``row_labels`` / ``col_labels`` map each row / column to the caller's
    id for diagnostics.
    """
    if direction not in ("auto", "topdown"):
        raise ValueError(f"unknown direction {direction!r} (auto/topdown)")
    grid = ProcGrid(comm, pr, pc)
    A = DistSparseMatrix.scatter_from_root(grid, coo_on_root)
    # π lives at home: a matched row's entry is current on the rank of its
    # grid row sitting in its mate's column block, a free row's on every
    # rank of the grid row
    pi = BlockVec(grid, A.nrows)
    mate_r = DistDenseVec(grid, A.nrows, "row")
    mate_c = DistDenseVec(grid, A.ncols, "col")
    # row block i's mate_r, identical along grid row i: where the fold sends
    # each row; column block j's mate_c, identical down grid column j: where
    # a level step reads a column's old mate.  Each is refreshed once per
    # phase; mate_r and mate_c stay the authority
    mate_blk = BlockVec(grid, A.nrows)
    mate_cblk = BlockVec(grid, A.ncols, "col")
    stats = DistStats()

    def counts() -> np.ndarray:
        """This rank's share of the snapshot counters (:data:`_COUNTED`)."""
        own = np.array([getattr(stats, name) for name in _COUNTED], np.int64)
        own[:3] *= grid.rank == 0
        return own

    # the steps the job has paid, which the hand-off rule is asked with
    rent = JobSteps(grid, resume)
    if resume is not None:
        # restart path: the checkpointed matching replaces the initializer,
        # and the counters take up where the snapshot left them (a snapshot
        # without them: the initial matching is the checkpointed one)
        mate_r.local[:] = resume.mate_row[mate_r.lo:mate_r.hi]
        mate_c.local[:] = resume.mate_col[mate_c.lo:mate_c.hi]
        mate_cblk.local[:] = resume.mate_col[mate_cblk.lo:mate_cblk.hi]
        stats.initial_cardinality = int(np.count_nonzero(resume.mate_row != NULL))
        held = list(zip(_COUNTED, (resume.aux or {}).get("counts", [])))
        for name, value in held[:None if grid.rank == 0 else 3]:
            setattr(stats, name, int(value))
    elif init == "greedy":
        with tspan(grid.comm, "init:greedy", cat="phase"):
            stats.initial_cardinality, stats.init_edges = proposal_rounds_spmd(
                A, mate_r, mate_c, mate_cblk,
            )
    elif init not in (None, "none"):
        raise ValueError(f"unknown distributed init {init!r} (greedy/none)")
    if checkpoint_store is not None and resume is None:
        # phase-0 snapshot: initializer work survives a crash in phase 1
        _checkpoint(grid, checkpoint_store, 0, mate_r, mate_c, counts(), stats, checkpoint_aux,
                    rent)

    phase_no = resume.phase if resume is not None else 0
    # unmatched columns grid-wide = the size of every phase's first frontier;
    # exact without communication: each augmenting path matches one more.
    # A resumed job counts its snapshot's matching, not the restored
    # initial cardinality
    free_cols = A.ncols - (stats.initial_cardinality if resume is None
                           else int(np.count_nonzero(resume.mate_col != NULL)))
    # column block j's unmatched columns, identical down grid column j: every
    # phase's first frontier, already expanded.  Each phase's path roots
    # leave it — every rank holds them
    free_blk = mate_cblk.local == NULL
    # the block's degrees: what a top-down step reads of a frontier column,
    # and what a pull reads of a row at most
    degr, degc = A.block.row_degrees(), A.block.col_degrees()
    # a job resumed from the hand-off's snapshot goes straight back to the
    # serial tail, its paths already applied
    tail = resume is not None and "tail" in (resume.aux or {})
    paths = None  # the (roots, end rows) of the hand-off phase

    while not tail:
        phase_no += 1
        stats.phases = phase_no
        phase_boundary(grid, stats, phase_no)
        # leaving the ``with`` via the k == 0 break below still closes the
        # span, so even the final (no-path) phase is timed
        with tspan(grid.comm, "phase", cat="phase", phase=phase_no):
            _refresh_replica(grid, phase_no, mate_r, mate_blk, row_labels)
            # the last phase's augmentations of mate_c, which ride this
            # phase's first column hop into the column replica
            stale = _stale(mate_c, mate_cblk)
            pi.local.fill(NULL)
            # the block rows with an edge that no block of the grid row has
            # visited: every fold tells each rank of the grid row the rows
            # it visited
            unseen = degr > 0
            found: list[tuple] = []  # the grid's (root, row) path ends, per iteration

            # initial column frontier: unmatched columns, parent = root = self.
            # The loop keeps the frontier EXPANDED: (bcols, broots) are the
            # sorted (column, root) pairs of this rank's whole column block,
            # identical down the grid column.
            bcols = broots = np.flatnonzero(free_blk) + A.col_lo
            # the global frontier size: the first is the free columns, every
            # later one the sum of the counts riding the fold
            live = free_cols

            while live > 0:
                with tspan(grid.comm, "bfs_iter", cat="phase", iter=stats.iterations + 1) as sp:
                    # Step 1: SpMV, each block in its own direction — under
                    # "auto" a pull wherever it is expected to read fewer of
                    # the block's edges.  Either way exchange 1 is the fold
                    # (grid row) to each row's home, every frame carrying the
                    # sender's block-frontier size, so no rank needs to know
                    # another's choice.  The trace names it: spmv vs
                    # spmv_bottomup
                    pull = direction == "auto" and pull_is_cheaper(
                        int(degc[bcols - A.col_lo].sum()), A.block.nnz, A.block.row_degrees,
                        unseen)
                    live, scanned, seen, rows, parents, roots = spmv_expanded(
                        A, bcols, broots, home=mate_blk.local, unseen=unseen, pull=pull,
                    )
                    if live == 0:
                        # the last column hop left the frontier empty: this
                        # fold was the loop test, not an iteration
                        if sp is not None:
                            sp.name = "loop_test"
                        break
                    stats.iterations += 1
                    stats.bottomup_steps += pull
                    # the edges this block read: top-down, over the grid,
                    # the frontier's edges, each once
                    stats.edges_examined += scanned
                    # Step 2 SELECT ran before the fold: every block sent
                    # candidates for unseen rows only, and a row with one is
                    # visited by this iteration's end
                    unseen[seen] = False
                    # Step 3: SET parents
                    pi.set_local(rows, parents)
                    # Step 4: split matched/unmatched.  A matched row is at
                    # home, so its mate lies in this rank's column block; the
                    # free rows — and so the path ends — are the grid row's,
                    # identical on each of its ranks
                    mates = mate_blk.get_local(rows)
                    free = mates == NULL
                    ends = path_ends(roots[free], rows[free])
                    cols, roots = mates[~free], roots[~free]

                    # Step 7: INVERT through mates -> next column frontier.
                    # Step 6 PRUNE is a filter before and after the hop: a
                    # hop keeps an entry's root, so dropping found trees
                    # commutes with it
                    with tspan(grid.comm, "next_frontier"):
                        cols, roots = _prune(ends, cols, roots)
                        # exchange 2 — column hop: the next frontier expanded,
                        # every path end of the grid on every rank, and (the
                        # phase's first) the column replica's refresh
                        bcols, broots, ends, *stale = hop_down_column(
                            A, cols, roots, ends, *stale
                        )
                        mate_cblk.set_local(*stale)
                        stale = (_EMPTY, _EMPTY)
                        _check_replica(grid, phase_no, mate_c, mate_cblk, col_labels)
                        bcols, broots = _prune(ends, bcols, broots)
                    found.append(ends)

            # phase end: Step 5 without a collective — every rank holds every
            # (root, row) path end the phase found; a root's first iteration
            # wins, so the path count k needs no reduction, and each path
            # starts at its end row's mate_r owner
            depth = np.repeat(np.arange(1, len(found) + 1), [r.size for r, _ in found])
            roots, rows = concat_pieces([(_EMPTY,) * 2, *found])
            roots, first = np.unique(roots, return_index=True)
            k = roots.size
            if k == 0:
                break
            free_cols -= k
            free_blk[roots[(roots >= A.col_lo) & (roots < A.col_hi)] - A.col_lo] = False
            rows, depth = rows[first], depth[first]
            # the hand-off, asked before augmenting: the rent is the job's
            # steps so far plus this phase's augmentation's, which
            # replicated numbers price exactly, and handing off now skips
            # that augmentation — the tail retraces the paths on a gathered
            # π instead.  With every column matched the next phase runs no
            # BFS: nothing is left to hand off
            aug_steps = augment_cost(depth, pr, pc)
            tail = free_cols > 0 and tail_is_cheaper(
                rent.total() + aug_steps,
                grid.nprocs,
                # the gather's words at full width, short of a word or two
                # a block (cp's last entry, the allgather's source label)
                # that the wire's range widths undercut many times over:
                # every block's ir, then its jc and cp — a block's columns
                # with an edge, nnz or pr·ncols in all at most — the mate
                # slices with their offsets, and π's (row, parent) pairs of
                # the visited rows
                A.nnz + 2 * min(A.nnz, pr * A.ncols) + 3 * grid.nprocs + 3 * A.nrows + A.ncols,
                A.nnz, EDISON.price(grid.nprocs, aug_steps * grid.nprocs).total,
            )
            if tail:
                paths = roots, rows
                break
            start = rows[(rows >= mate_r.lo) & (rows < mate_r.hi)]
            stats.augment_level_calls += 1
            with tspan(grid.comm, "augment:level", cat="phase", k=k):
                augment_level_spmd(A, start, pi, mate_r, mate_c, mate_cblk)

            # phase complete: the augmented matching is valid (vertex-disjoint
            # augmenting paths), so it is a correct restart point; the tail
            # writes the hand-off's own
            if checkpoint_store is not None and (
                checkpoint_every > 0 and phase_no % checkpoint_every == 0
            ):
                _checkpoint(grid, checkpoint_store, phase_no, mate_r, mate_c, counts(), stats,
                            checkpoint_aux, rent)

    mates = ((mate_r.lo, mate_r.local), (mate_c.lo, mate_c.local))
    if tail:
        # the tail: one grid allgather hands every rank the whole graph and
        # matching — and, after the hand-off phase's BFS, each visited row's
        # π where it is current (a free row's once per grid row) — and each
        # finishes the phases alone, in the job's direction (under "auto"
        # an iteration pulls where the blocks' rule would), every edge read
        # counted on every rank that reads it
        with tspan(grid.comm, "tail", cat="phase", phase=phase_no + 1):
            blk, pis, snap = A.block, (), checkpoint_store is not None and paths is not None
            if paths is not None:
                # the tail retraces the paths level-parallel: a level call
                stats.augment_level_calls += 1
                visited = (pi.local != NULL) & ((mate_blk.local != NULL) | (grid.j == 0))
                pis = (np.flatnonzero(visited) + pi.lo, pi.local[visited])
            pieces = grid.comm.allgather(
                (blk.jc, blk.cp, blk.ir, *mates, *pis, *([counts()] if snap else [])))
            A.block = blk = mate_blk = mate_cblk = mates = None
            g_r = mate_r.assemble([piece[3] for piece in pieces])
            g_c = mate_c.assemble([piece[4] for piece in pieces])
            if paths is not None:
                # the hand-off phase's paths, retraced on the gathered π by
                # Algorithm 3, which reads no edge
                path_c, g_pi = np.full(A.ncols, NULL), np.full(A.nrows, NULL)
                path_c[paths[0]] = paths[1]
                for piece in pieces:
                    g_pi[piece[5]] = piece[6]
                augment_level_parallel(path_c, g_pi, g_r, g_c)
                del path_c, g_pi  # not held through the serial phases
            if snap:
                # the hand-off's snapshot, the grid's counts riding the
                # gather (only here: a job's totals are launch's sums): a
                # resume goes straight back to the tail
                aux = {**(checkpoint_aux or {}), "tail": np.array(1),
                       "counts": sum(piece[-1] for piece in pieces)}
                with tspan(grid.comm, "checkpoint", cat="phase", phase=phase_no):
                    save_checkpoint(grid, checkpoint_store, Checkpoint(phase_no, g_r, g_c, aux),
                                    stats)
            serial = MatchingStats()
            mcm_phase_loop(
                _global_csc(A, pieces), g_r, g_c, serial, direction=direction,
                on_phase=lambda n: phase_boundary(grid, stats, phase_no + n, serial=True),
            )
        stats.phases = phase_no + serial.phases
        stats.iterations += serial.iterations
        stats.bottomup_steps += serial.bottomup_steps
        stats.tail_phases, stats.tail_iterations = serial.phases, serial.iterations
        stats.tail_edges = serial.edges_traversed
        stats.edges_examined += serial.edges_traversed
    else:
        # a job that never hands off closes on one grid allgather of the
        # mate slices, which carries no counter: launch sums them
        pieces = grid.comm.allgather(mates)
        g_r = mate_r.assemble([r for r, _ in pieces])
        g_c = mate_c.assemble([c for _, c in pieces])
    # this rank's block-iterations by direction (launch sums them, as it
    # does the edge reads); the per-rank ledger snapshot is the job's last act
    stats.topdown_steps = stats.iterations - stats.bottomup_steps
    stats.final_cardinality = int(np.count_nonzero(g_r != NULL))
    snapshot_ledger(grid, stats)
    return g_r, g_c, stats


#: seed of the relabeling :func:`run_mcm_dist` applies to its input
RELABEL_SEED = 0


def relabeled(coo: COO) -> tuple[COO, np.ndarray, np.ndarray]:
    """``coo`` as :func:`run_mcm_dist` solves it, with the row and column
    permutations that map its mates back
    (:func:`~repro.sparse.permute.unpermute_matching`)."""
    return permute.signature_permuted(coo, RELABEL_SEED)


def _mcm_rank_main(comm: Communicator, coo: COO, pr: int, pc: int, **mcm_kwargs):
    """Per-rank entry point of :func:`run_mcm_dist`.

    A module-level function (not a closure) so a process backend can pickle
    it; the graph and grid shape arrive through ``spmd``'s ``*args``.
    """
    data = coo if comm.rank == 0 else None
    return mcm_dist_spmd(comm, data, pr, pc, **mcm_kwargs)


def run_mcm_dist(
    coo: COO,
    pr: int,
    pc: int,
    *,
    init: str = "greedy",
    direction: str = "auto",
    timeout: "float | None" = None,
    verify: bool = False,
    faults=None,
    trace: "bool | str" = False,
    backend: "str | None" = None,
    checkpoint_every: int = 1,
    checkpoint_store: "CheckpointStore | None" = None,
    max_restarts: int = 0,
) -> tuple[np.ndarray, np.ndarray, DistStats]:
    """Launch MCM-DIST on a simulated pr × pc process grid.

    The matrix starts on rank 0 and is scattered; the returned mate vectors
    are the globally assembled result (identical on every rank).
    The engine solves ``coo`` with its rows and columns pseudo-randomly
    relabeled, as the paper does (Section IV-A), and the mates come back in
    the caller's labels: :func:`~repro.sparse.permute.signature_permuted`
    under ``RELABEL_SEED``, which keys each vertex by its local structure
    and its rank within it, so order-preserving id changes (splicing
    isolated edges in, say) leave the work alone.
    ``direction`` selects the Step-1 traversal: "auto" (each block pulls
    wherever that is expected to read fewer of its edges) or "topdown";
    ``stats.topdown_steps`` / ``bottomup_steps`` tally block-iterations,
    summed over the ranks.
    ``verify=True`` arms the runtime's collective-divergence verifier for
    the whole job (``repro spmd --verify``).
    ``timeout`` is the deadlock window for every blocking runtime call
    (``None`` → ``$REPRO_SPMD_TIMEOUT`` → 120 s).  Which physical collective
    plan runs is chosen per communicator from its size (hub/star waves from
    three ranks up, see :mod:`repro.runtime.comm`); the mate vectors are
    bit-identical on every grid shape.  ``trace`` turns on
    per-rank span tracing (``True``/``"wall"`` for wall-clock timestamps,
    ``"ticks"`` for the deterministic clock); the merged
    :class:`~repro.runtime.trace.DistTrace` lands on ``stats.trace`` —
    tracing never changes results (the tracer only observes).
    ``backend`` selects the transport ("thread"/"process" — forked OS
    processes over shared-memory rings; bit-identical mates either way);
    ``None`` resolves through ``$REPRO_SPMD_BACKEND``.

    Faults and recovery (:func:`~repro.matching.job.launch` is the driver):
    ``faults`` arms a seeded :class:`~repro.runtime.faults.FaultPlan` (or its
    string form; a ready-made ``FaultInjector`` for a single attempt).  With
    ``max_restarts > 0`` the job survives rank deaths, injected or
    otherwise: every ``checkpoint_every``-th phase boundary snapshots
    ``(mate_row, mate_col, phase)`` into ``checkpoint_store`` (in-memory by
    default; a :class:`~repro.runtime.checkpoint.FileCheckpointStore`
    survives the process and is required under ``backend="process"`` —
    forked ranks cannot write into the parent's memory), a failed attempt
    is restarted on a fresh fabric from the latest snapshot, up to
    ``max_restarts`` times, and because each completed phase leaves a valid
    matching the restarted run converges to the same maximum cardinality.
    ``stats.restarts`` / ``phases_replayed`` / ``restart_spans`` /
    ``checkpoint_words`` record it; with ``trace`` set, every attempt's
    timeline — failed ones included, fault and truncated spans intact — is
    concatenated with a ``restart`` span at each seam.  A store exists iff
    one is passed or ``max_restarts > 0``: the default run writes no
    checkpoint and pays no checkpoint collective; passing a store alone
    (``max_restarts=0``) snapshots, and resumes from what the store already
    holds, without restarting.  Snapshots hold relabeled mates, so each
    carries the seed (``aux["relabel"]``), and resuming from a store
    written under another seed, or before the engine relabeled (no stamp),
    raises ``ValueError``.
    """
    held = checkpoint_store.latest() if checkpoint_store is not None else None
    if held is not None:
        held_seed = (held.aux or {}).get("relabel")
        if held_seed is None or int(held_seed) != RELABEL_SEED:
            raise ValueError(
                f"checkpoint store holds mates relabeled under seed {held_seed}, "
                f"this run relabels under seed {RELABEL_SEED}"
            )
    coo, row_perm, col_perm = relabeled(coo)
    mate_r, mate_c, stats = launch(
        _mcm_rank_main, (coo,), pr, pc,
        faults=faults, checkpoint_every=checkpoint_every,
        checkpoint_store=checkpoint_store, max_restarts=max_restarts,
        timeout=timeout, verify=verify, trace=trace, backend=backend,
        init=init, direction=direction,
        checkpoint_aux={"relabel": np.array(RELABEL_SEED, dtype=np.int64)},
        row_labels=permute.inverse_permutation(row_perm),
        col_labels=permute.inverse_permutation(col_perm),
    )
    return (*permute.unpermute_matching(mate_r, mate_c, row_perm, col_perm), stats)
