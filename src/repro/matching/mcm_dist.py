"""MCM-DIST: the true SPMD distributed implementation of Algorithm 2.

Every function here runs *per rank* under the simulated MPI runtime: state
is rank-local (DCSC block, vector slices), all coordination goes through
collectives on the row and column communicators (the grid communicator
carries only the job's set-up and tear-down and the window's fences) and —
for path-parallel augmentation — one one-sided RMA window.  The code would
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
Step 1, direction-optimized            the same call, given the block rows not
                                       yet seen visited: an early-exit pull; under
                                       ``direction="auto"`` each block pulls
                                       alone wherever that is expected to read
                                       fewer of its edges
                                       (:func:`pull_is_cheaper`) — no vote,
                                       both directions post the one fold
Steps 2–4 SELECT/SET                   local NumPy at home: π is a row-block
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
Algorithm 4 (path-parallel RMA)        :func:`augment_path_spmd_rma` — one window
                                       per run, two fences per phase; π read
                                       at each row's home
k < 2p² switch                          :func:`mcm_dist_spmd` per phase
                                       (:func:`~repro.matching.augment.choose_augment_mode`,
                                       the paper's rule as derived for its own
                                       6αp level step)
gather onto one node (§VI-E, Fig. 9)   the tail hand-off: after any phase that
                                       cost more latency than one grid
                                       allgather of the DCSC blocks and mates
                                       plus one read of every edge
                                       (:func:`tail_is_cheaper`), every rank
                                       builds the whole CSC from the gathered
                                       blocks and finishes alone
                                       (:func:`~repro.matching.msbfs.mcm_phase_loop`)
distributed maximal matching [21]      :func:`proposal_rounds_spmd` — greedy,
                                       Karp-Sipser and dynamic mindegree are
                                       three policies over one round of three
                                       row/column allgathers (two for greedy:
                                       its accepts ride the next propose)
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
simulated ranks and returns globally assembled mate vectors.  What the
engine does around its phase loop — launch and recovery, the checkpoint
write, the closing collective (one grid allgather of the mates, the counts
riding it) and ledger — is the job shell it shares with MWM-DIST
(:mod:`repro.matching.job`).
"""

from __future__ import annotations

import numpy as np

from ..distmat.distvec import BlockVec, DistDenseVec, share_buffer
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
from ..perfmodel import EDISON
from ..perfmodel.collectives import allgather
from ..runtime import Window
from ..runtime.checkpoint import Checkpoint, CheckpointStore
from ..runtime.comm import SUM, Communicator
from ..runtime.trace import tspan
from ..sparse import permute
from ..sparse.coo import COO
from ..sparse.csc import CSC
from ..sparse.semiring import reduce_candidates
from ..sparse.spvec import NULL
from .augment import choose_augment_mode
from .job import (
    DistStats,
    gather_totals,
    launch,
    ledger_totals,
    phase_boundary,
    save_checkpoint,
    snapshot_ledger,
)
from .msbfs import MatchingStats, mcm_phase_loop


# ---------------------------------------------------------------------------
# distributed maximal-matching initializers (the matrix-algebraic rounds of [21])
# ---------------------------------------------------------------------------

_EMPTY = np.empty(0, np.int64)

#: ``init`` name -> the proposer/key policy it is over
#: :func:`proposal_rounds_spmd`.  Greedy: every free column proposes, ids
#: break ties.  Dynamic mindegree — the paper's default: the same rounds
#: keyed by residual degree.
#: Karp-Sipser: degree-1 columns, whose match is always safe, go first; their
#: cascades serialize into many rounds — what makes distributed Karp-Sipser
#: slow in the paper's Fig. 3.
_INIT_POLICIES = {
    "greedy": {},
    "mindegree": {"degree_keys": True},
    "karp-sipser": {"degree_one_first": True},
}


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
    *,
    degree_keys: bool = False,
    degree_one_first: bool = False,
) -> tuple[int, int]:
    """Round-synchronous maximal matching from the EMPTY matching, SPMD —
    the one round driver behind all three initializers.  Returns the global
    number of pairs matched and the edges this rank read: greedy's
    lookahead cursor, the degree-keyed policies' explodes.

    Rank (i, j) replicates the free-row bitmap of row block i (identical
    along grid row i) and ``mate_cblk``, column block j's ``mate_c``
    (identical down grid column j; its free entries are the block's
    free-column bitmap).  One round is three packed allgathers, none of
    them on the grid communicator:

    1. **propose** (grid row) — every block reduces its edges between
       proposing columns and free rows to one candidate per free row;
       allgathered along the row, every rank reduces them to the row's
       proposal (its minimum key).
    2. **resolve** (grid column) — the rank sitting in the proposed column's
       block contributes the proposal; every rank of the column keeps each
       column's minimum row, which fills ``mate_cblk`` and the vector
       owners' ``mate_c``.
    3. **accept** (grid row) — the accepted pairs of this row block, and the
       column block's accept count, go along the row: the row bitmap and
       the owners' ``mate_r`` are updated, and the counts sum to the
       round's global match count on every rank.  Greedy sends them on the
       next round's propose allgather and drops the rows they matched from
       the proposals after it — a proposal is per row, so that is the
       round it would have made — so R rounds cost 2R + 1 allgathers, the
       last propose carrying only the zero count that ends the loop.

    A candidate travels as (vertex, key) with the proposed partner in
    ``key mod n``: ``degree_keys`` puts the partner's residual degree above
    it, which makes both reductions prefer the minimum-degree partner (ties
    to the smaller id, like the serial ``mindegree_rounds``).
    ``degree_one_first`` restricts a round's proposers to the residual
    degree-1 columns while any exists anywhere (Karp-Sipser).  Either one
    maintains block-replicated residual degrees with one ``colcomm`` and one
    ``rowcomm`` allreduce per matching round; the latter's last word carries
    the column block's degree-1 count, so no rank needs a grid reduction to
    know whether one exists.  Their next proposals read the degrees the
    accepts lower, so they accept in a round of their own.  The loop ends
    when a round matches nothing, which is exactly maximality.
    """
    grid, blk = A.grid, A.block
    nrows, ncols = max(1, A.nrows), max(1, A.ncols)
    free_r = np.ones(blk.nrows, dtype=bool)
    degrees = degree_keys or degree_one_first
    ones_left = 0  # free residual degree-1 columns, grid-wide
    if degrees:
        degr, degc = (d.copy() for d in A.degree_blocks())
        if degree_one_first:
            ones_left = int(grid.rowcomm.allreduce(int((degc == 1).sum()), op=SUM))
    # greedy: each free row's proposal is its minimum free column, and a
    # matched column stays matched, so one lookahead cursor per row into the
    # row-major mirror replaces exploding the free columns (the degree-keyed
    # policies read the mirror too, in their degree updates)
    row_ptr, col_idx = blk.csr_mirror()
    cursor = row_ptr[:-1].copy()

    def accept(arows, acols, accepts) -> int:
        free_r[arows - A.row_lo] = False
        own = (arows >= mate_r.lo) & (arows < mate_r.hi)
        mate_r.set_local(arows[own], acols[own])
        return int(accepts.sum())

    # this rank's accepts not sent yet: (rows, columns, count), the count
    # empty while there are none
    unsent = (_EMPTY,) * 3
    total = edges = 0
    while True:
        # 1. propose, the last round's accepts riding along
        if degrees:
            cols = np.flatnonzero(mate_cblk.local == NULL)
            if degree_one_first:
                # zero-degree columns can never match; leaving them out keeps
                # the plain rounds to the columns Karp-Sipser still has to place
                cols = cols[degc[cols] == 1] if ones_left else cols[degc[cols] > 0]
            gcols = cols + A.col_lo
            # keep no edge-sized array longer than needed (the roots repeat
            # the keys, and the row offset waits for the reduced candidates)
            lrows, key = blk.explode_cols(cols, gcols, gcols)[:2]
            edges += lrows.size
            open_row = free_r[lrows]
            lrows, key = lrows[open_row], key[open_row]
            if degree_keys:
                key = key + degc[key - A.col_lo] * ncols
            lrows, key = _best(lrows, key)
        else:
            lrows, key, read = advance_cursor(
                row_ptr, col_idx, cursor, np.flatnonzero(free_r), mate_cblk.local != NULL
            )
            edges += read
            key += A.col_lo
        pieces = allgather_arrays(grid.rowcomm, lrows + A.row_lo, key, *unsent)
        rows, key, *accepts = concat_pieces(pieces)
        if accepts[2].size:
            matched = accept(*accepts)
            total += matched
            if matched == 0:
                return total, edges
            open_row = free_r[rows - A.row_lo]
            rows, key = rows[open_row], key[open_row]
        rows, key = _best(rows, key)
        pcols = key % ncols

        # 2. resolve
        mine = (pcols >= A.col_lo) & (pcols < A.col_hi)
        pcols, key = pcols[mine], rows[mine]
        if degree_keys:
            key = key + degr[key - A.row_lo] * nrows
        pieces = allgather_arrays(grid.colcomm, pcols, key)
        wcols, key = _best(*concat_pieces(pieces))
        wrows = key % nrows
        mate_cblk.set_local(wcols, wrows)
        own = (wcols >= mate_c.lo) & (wcols < mate_c.hi)
        mate_c.set_local(wcols[own], wrows[own])

        # 3. accept
        here = (wrows >= A.row_lo) & (wrows < A.row_hi)
        unsent = (wrows[here], wcols[here], np.array([wcols.size], np.int64))
        if not degrees:
            continue
        arows, acols, accepts = concat_pieces(allgather_arrays(grid.rowcomm, *unsent))
        unsent = (_EMPTY,) * 3
        matched = accept(arows, acols, accepts)
        total += matched
        if matched == 0:
            if not ones_left:
                return total, edges
            # stale degree-1 entries can occur transiently after ties; one
            # plain round makes progress or proves maximality
            ones_left = 0
            continue
        # columns adjacent to newly matched rows lose a degree, rows
        # adjacent to newly matched columns likewise
        _, touched = blk.explode_rows(arows - A.row_lo)
        edges += touched.size
        degc -= grid.colcomm.allreduce(
            np.bincount(touched, minlength=blk.ncols).astype(np.int64), op=SUM
        )
        touched, _, _ = blk.explode_cols(wcols - A.col_lo, wcols, wcols)
        edges += touched.size
        dec_r = np.bincount(touched, minlength=blk.nrows + 1).astype(np.int64)
        dec_r[-1] = ((mate_cblk.local == NULL) & (degc == 1)).sum()
        dec_r = grid.rowcomm.allreduce(dec_r, op=SUM)
        degr -= dec_r[:-1]
        ones_left = int(dec_r[-1]) if degree_one_first else 0


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


def augment_path_spmd_rma(
    win: Window,
    start_rows: np.ndarray,
    pi: BlockVec,
    mate_r: DistDenseVec,
    mate_c: DistDenseVec,
) -> None:
    """Algorithm 4, SPMD: each rank walks its own paths asynchronously with
    one-sided Get/Put/Fetch-and-op — 3 RMA calls per pair-step, exactly the
    paper's accounting.  Vertex-disjointness of the paths makes the
    unordered remote updates safe.  A start row — a path end, free — is
    this rank's in ``mate_r`` and its π is read here; every later row r is
    the old mate a fetch-and-op on column c returned, and its π is read at
    its home, the rank of its grid row sitting in c's column block.

    ``win`` is the job's one window over the shared buffer of the three
    vectors (:func:`~repro.distmat.distvec.share_buffer`); the phase is one
    access epoch — a fence in, which publishes what the owners stored since
    the last one, and a fence out, after which they store directly again."""
    win.fence()
    for r0 in np.asarray(start_rows, np.int64).tolist():
        r, j = int(r0), pi.grid.j
        while r != NULL:
            c = int(win.get(*pi.remote_location(r, j)))  # MPI_Get(π[r])
            win.put(*mate_r.remote_location(r), c)       # MPI_Put(mate_r[r] = c)
            crank, coff = mate_c.remote_location(c)
            r = int(win.fetch_and_op(crank, coff, r))    # fused read-old/put-new
            j = crank % pi.grid.pc                       # c's column block
    win.fence(nosucceed=True)


# ---------------------------------------------------------------------------
# phase-granular checkpointing
# ---------------------------------------------------------------------------

def _checkpoint(
    grid: ProcGrid,
    store: CheckpointStore,
    phase: int,
    mate_r: DistDenseVec,
    mate_c: DistDenseVec,
    stats: DistStats,
    aux: "dict[str, np.ndarray] | None",
) -> None:
    """Snapshot the globally assembled matching after a completed phase
    (the assembly is two allgathers on the grid communicator; the write
    protocol is :func:`~repro.matching.job.save_checkpoint`), stamped with
    the caller's ``aux``."""
    with tspan(grid.comm, "checkpoint", cat="phase", phase=phase):
        ck = Checkpoint(
            phase=phase, mate_row=mate_r.to_global(), mate_col=mate_c.to_global(),
            aux=aux,
        )
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


def pull_is_cheaper(td: int, nnz: int, degrees: np.ndarray, unseen: np.ndarray) -> bool:
    """Step 1's direction under "auto", a block's own choice: pull iff the
    pull's expected read E = Σ over the ``unseen`` rows of min(degree,
    nnz/td) is below ``td``, the frontier columns' edges a top-down explode
    reads.  A block edge lands on a frontier column with probability
    td/nnz, so a row reads about nnz/td edges before its first hit, never
    more than its degree.  ``unseen`` marks rows with an edge only, so each
    adds at least 1 to E (td ≤ nnz): as many unseen rows as ``td`` settle
    it without E.  Computed as Σ min(degree·td, nnz) < td², in integers."""
    return np.count_nonzero(unseen) < td and (
        int(np.minimum(degrees[unseen] * td, nnz).sum()) < td * td)


def tail_is_cheaper(steps: int, p: int, words: int, nnz: int) -> bool:
    """The tail hand-off, priced at EDISON's α, β and γ alone: finish the
    job on a serial solve replicated on all ``p`` ranks iff the phase just
    done — ``steps`` latency steps on a rank's ledger — cost more than one
    grid allgather of ``words`` words plus reading all ``nnz`` edges once.
    A top-down serial phase reads each edge at most once, so m serial
    phases cost at most the gather plus m·γ·nnz: when no later distributed
    phase is cheaper than this one, the switch never loses.  One-sided
    ops are not on the ledger, so the rule fires no earlier than a fully
    priced one would; a 1x1 grid's ledger holds no step, so it never
    fires there."""
    gather = allgather(p, EDISON.alpha, EDISON.beta, words)
    return EDISON.alpha * steps > gather + EDISON.gamma * nnz


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
    fewer edges than its frontier columns hold (:func:`pull_is_cheaper`);
    the mate vectors are identical in both modes.  The engine picks each
    phase's augmentation by the paper's k < 2p² rule
    (:func:`~repro.matching.augment.choose_augment_mode`), PRUNEs every
    iteration and reduces candidates under minParent.  After every phase
    that augmented, :func:`tail_is_cheaper` prices that phase's latency
    steps against gathering the graph: once it fires, every rank finishes
    on the same serial top-down phases (``stats.tail_*``).
    Returns (globally gathered mate_r, mate_c, stats) on every rank.

    Checkpoint/restart (driven by :func:`~repro.matching.job.launch`, which
    passes a store only when the caller gave one or allowed restarts): with
    ``checkpoint_store`` set, the job snapshots the globally assembled
    mate vectors after the initializer, after every
    ``checkpoint_every``-th completed phase and after the phase that hands
    off to the serial tail, whose own phases write none — each completed
    phase is a valid matching, so any snapshot is a correct restart point.  Without a
    store no checkpoint collective runs at all.  With ``resume`` set, the
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
    # the three vectors path-parallel augmentation reaches one-sidedly live
    # in one buffer, so ONE window exposes them for the whole run
    shared = share_buffer(pi, mate_r, mate_c)
    win: "Window | None" = None
    stats = DistStats()

    if resume is not None:
        # restart path: the checkpointed matching replaces the initializer
        mate_r.local[:] = resume.mate_row[mate_r.lo:mate_r.hi]
        mate_c.local[:] = resume.mate_col[mate_c.lo:mate_c.hi]
        mate_cblk.local[:] = resume.mate_col[mate_cblk.lo:mate_cblk.hi]
        stats.initial_cardinality = int(np.count_nonzero(resume.mate_row != NULL))
    elif init in _INIT_POLICIES:
        with tspan(grid.comm, f"init:{init}", cat="phase"):
            stats.initial_cardinality, stats.init_edges = proposal_rounds_spmd(
                A, mate_r, mate_c, mate_cblk, **_INIT_POLICIES[init],
            )
    elif init not in (None, "none"):
        raise ValueError(
            f"unknown distributed init {init!r} (greedy/mindegree/karp-sipser/none)"
        )
    if checkpoint_store is not None and resume is None:
        # phase-0 snapshot: initializer work survives a crash in phase 1
        _checkpoint(grid, checkpoint_store, 0, mate_r, mate_c, stats, checkpoint_aux)

    edges_local = 0
    phase_no = resume.phase if resume is not None else 0
    # unmatched columns grid-wide = the size of every phase's first frontier;
    # exact without communication: each augmenting path matches one more
    free_cols = A.ncols - stats.initial_cardinality
    # column block j's unmatched columns, identical down grid column j: every
    # phase's first frontier, already expanded.  Each phase's path roots
    # leave it — every rank holds them
    free_blk = mate_cblk.local == NULL
    # the block's degrees: what a top-down step reads of a frontier column,
    # and what a pull reads of a row at most
    degr, degc = A.block.row_degrees(), A.block.col_degrees()
    # a job resumed from the hand-off's snapshot goes straight back to the
    # serial tail
    tail = resume is not None and "tail" in (resume.aux or {})

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
            # the block rows with an edge this rank has not seen visited — a
            # superset of the unvisited ones that a pull can reach, which
            # never needs a message to keep
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
                        int(degc[bcols - A.col_lo].sum()), A.block.nnz, degr, unseen)
                    live, scanned, sent, rows, parents, roots = spmv_expanded(
                        A, bcols, broots, home=mate_blk.local,
                        unseen=unseen if pull else None,
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
                    edges_local += scanned
                    # a row with a candidate is visited by this iteration's end
                    unseen[sent] = False
                    # Step 2: SELECT unvisited rows — a pull's rows included:
                    # another block's home may have visited them already
                    fresh = pi.get_local(rows) == NULL
                    rows, parents, roots = rows[fresh], parents[fresh], roots[fresh]
                    # Step 3: SET parents
                    pi.set_local(rows, parents)
                    unseen[rows - A.row_lo] = False
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
            roots, rows = concat_pieces([(_EMPTY,) * 2, *found])
            roots, first = np.unique(roots, return_index=True)
            k = roots.size
            if k == 0:
                break
            free_cols -= k
            free_blk[roots[(roots >= A.col_lo) & (roots < A.col_hi)] - A.col_lo] = False
            rows = rows[first]
            start = rows[(rows >= mate_r.lo) & (rows < mate_r.hi)]
            if choose_augment_mode(k, grid.nprocs) == "level":
                stats.augment_level_calls += 1
                with tspan(grid.comm, "augment:level", cat="phase", k=k):
                    augment_level_spmd(A, start, pi, mate_r, mate_c, mate_cblk)
            else:
                stats.augment_path_calls += 1
                if win is None:
                    # collective, and every rank takes it in the same phase:
                    # the mode is a function of the replicated k
                    win = Window(grid.comm, shared)
                with tspan(grid.comm, "augment:path", cat="phase", k=k):
                    augment_path_spmd_rma(win, start, pi, mate_r, mate_c)

            # phase complete: the augmented matching is valid (vertex-disjoint
            # augmenting paths), so it is a correct restart point.  The
            # hand-off is priced on the phase's own steps, before its
            # snapshot, and always takes one: a crash in the tail restarts
            # there.  With every column matched the next phase runs no BFS,
            # so nothing is left to hand off
            tail = free_cols > 0 and tail_is_cheaper(
                ledger_totals(grid)[0] - stats.phase_ledger[phase_no][0], grid.nprocs,
                # the gather's words at most: every block's ir, then its jc
                # and cp — a block's columns with an edge, nnz or pr·ncols in
                # all at most — and the mate slices with their offsets
                A.nnz + 2 * min(A.nnz, pr * A.ncols) + 3 * grid.nprocs + A.nrows + A.ncols,
                A.nnz,
            )
            if checkpoint_store is not None and (
                tail or (checkpoint_every > 0 and phase_no % checkpoint_every == 0)
            ):
                aux = {**(checkpoint_aux or {}), "tail": np.array(1)} if tail else checkpoint_aux
                _checkpoint(grid, checkpoint_store, phase_no, mate_r, mate_c, stats, aux)
            if tail:
                break

    if win is not None:
        stats.rma_ops, stats.rma_words = win.rma_ops, win.rma_words
        win.free()
    mates = ((mate_r.lo, mate_r.local), (mate_c.lo, mate_c.local))
    if tail:
        # the tail: one grid allgather hands every rank the whole graph and
        # matching, and each finishes the phases alone — top-down, every
        # edge read counted on every rank that reads it
        with tspan(grid.comm, "tail", cat="phase", phase=phase_no + 1):
            blk = A.block
            pieces = grid.comm.allgather((blk.jc, blk.cp, blk.ir, *mates))
            A.block = blk = mate_blk = mate_cblk = mates = None
            g_r = mate_r.assemble([piece[3] for piece in pieces])
            g_c = mate_c.assemble([piece[4] for piece in pieces])
            serial = MatchingStats()
            mcm_phase_loop(
                _global_csc(A, pieces), g_r, g_c, serial,
                on_phase=lambda n: phase_boundary(grid, stats, phase_no + n, serial=True),
            )
        stats.phases = phase_no + serial.phases
        stats.iterations += serial.iterations
        stats.tail_phases, stats.tail_iterations = serial.phases, serial.iterations
        stats.tail_edges = serial.edges_traversed
        edges_local += serial.edges_traversed
    # this rank's block-iterations by direction; launch sums them
    stats.topdown_steps = stats.iterations - stats.bottomup_steps
    # the job's one closing collective assembles the mates on every rank
    # (unless the tail already has), the edge and word counts riding it;
    # the per-rank ledger snapshot is taken AFTER it, as the job's last act
    pieces, (stats.edges_examined,) = gather_totals(grid, stats, mates, edges_local)
    if mates is not None:
        g_r = mate_r.assemble([r for r, _ in pieces])
        g_c = mate_c.assemble([c for _, c in pieces])
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
    ``verify=True`` arms the runtime's collective-divergence and RMA-race
    verifiers for the whole job (``repro spmd --verify``).
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
