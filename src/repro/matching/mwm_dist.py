"""MWM-DIST: distributed maximum WEIGHT matching via ε-scaled auctions.

The weighted sibling of :mod:`repro.matching.mcm_dist` — same SPMD
discipline (rank-local blocks, all coordination through collectives), but
the phase engine is a synchronized Bertsekas auction on the DOUBLED
perfect-assignment graph (see :mod:`repro.matching.auction` for why the
doubling is what makes ε-scaling sound).

Auction state is REPLICATED along the grid so that a round never leaves
the √p-rank row and column communicators (the paper's §IV lesson): rank
(i, j) keeps the prices and the item→bidder map of row block i —
identical on the pc ranks of grid row i — and the free-bidder bitmap of
column block j — identical on the pr ranks of grid column j.  That is
O(N/pr + N/pc) words per rank on top of the matrix block.  One bidding
round is then three packed allgathers:

1. **bid** (grid column) — every rank runs the (select, +)-semiring block
   kernel :func:`~repro.matching.auction.top2_cols` on the free bidders
   of its column block and allgathers the per-block (best, second)
   partials; every rank of the column merges them
   (:func:`~repro.matching.auction.combine_partials`) into the same
   Bertsekas bids.
2. **resolve** (grid row) — the rank whose row block holds a bid's best
   item contributes it to the row's allgather; every rank of the row
   keeps each item's highest bid (ties to the smallest bidder — the
   float-keyed :func:`~repro.sparse.semiring.reduce_candidates`), evicts
   the previous mate and raises the price, in its own replica.
3. **notify** (grid column) — winners and evictees of the rank's column
   block go down the column to flip the free bitmap, together with the
   row block's count of accepts onto previously unowned items; summed
   over the column that count is the exact global drop in active bidders,
   so every rank knows when the phase is over without a reduction.

Bids now reach the pc-1 row peers instead of one owner — a few percent
more words bought 2·⌈log₂ pr⌉ + ⌈log₂ pc⌉ latency steps per round instead
of two grid-wide all-to-alls, three sub-communicator exchanges and an
allreduce (DESIGN §16 has the measured counts).

Every ε-phase ends in a certified extraction: the better G-matching, L and
the dual bound D (one column allgather and one grid allgather,
:func:`_extract`, ending on :func:`~repro.matching.auction.end_phase`), and the
run stops at the first phase whose certificate proves ``L >= (1-ε)·D/2``
(:func:`~repro.matching.auction.next_delta`).  A phase at the ladder's
floor that does not certify is an engine bug and raises
:class:`CertificateError`.

An auction's last rounds are thin — a handful of bidders, all latency —
so the round boundary is also where the job may leave the grid (the
paper's gather onto one node, §VI-E): once the job's latency steps so
far (every one since it began, :meth:`~repro.matching.job.Job.steps`)
cost more than one grid allgather of the graph and state plus one read
of every edge (:func:`~repro.matching.job.tail_is_cheaper`, MCM-DIST's
rule: ski rental), one grid allgather hands every rank rank 0's deduped
edge list,
the item→bidder map and the prices, and each finishes the phase and the
later ones on the serial twin's loop
(:func:`~repro.matching.auction.auction_phase_loop`; ``stats.tail_*``):
every rank runs each round whole, and each phase-end reads 1/p of the
doubled graph on each rank, whose pieces meet in one grid allgather.
Every top-2 scan's reads are counted into ``edges_examined``: the tail's
bids' on every rank (``tail_edges``), a phase-end's share on its rank.

All bids of a round are computed against the same round-start prices
(Jacobi), and every tie-break is by smallest id, so the mate vectors are
bit-identical to :func:`repro.matching.reference.auction_twin.auction_mwm_serial`
on every grid shape and backend, under either physical collective plan,
whichever round the job hands off at.

Launch, recovery, the counters' sums, the snapshot and the closing ledger
are the job shell the cardinality engine uses too
(:mod:`repro.matching.job`), and no collective carries a counter.  A
snapshot, after every completed ε-phase, is the items' mates (item →
bidder: the bidder side is its inverse) with the item PRICES and the
ε-ladder's state (next increment, L) in its ``aux`` slot, gathered from
grid column 0 in :meth:`~repro.matching.job.Job.snapshot`'s one grid
allgather with the job's counters: mates alone are not a valid auction
restart point — a phase resumed with zeroed prices would forfeit the warm
start the earlier ε-phases paid for, and one resumed without L would
climb a different ladder.
"""

from __future__ import annotations

import numpy as np

from ..distmat.grid import ProcGrid
from ..distmat.ops import allgather_arrays, concat_pieces
from ..distmat.spmat import DistBlockMatrix, scatter_edges
from ..runtime.checkpoint import Checkpoint, CheckpointStore
from ..runtime.comm import Communicator
from ..runtime.errors import CommError
from ..runtime.trace import tspan
from ..sparse.coo import COO
from ..sparse.spvec import NULL
from .auction import (
    MAX_ROUNDS,
    AuctionState,
    auction_phase_loop,
    build_csc,
    combine_partials,
    compute_bids,
    dedup_edges,
    double_for_assignment,
    end_phase,
    next_delta,
    resolve_bids,
    top2_cols,
)
from .job import DistStats, Job, launch, phase_boundary, snapshot_ledger, tail_is_cheaper


class CertificateError(CommError):
    """A phase at the ε-ladder's floor failed its dual certificate.

    The floor's proof (:func:`~repro.matching.auction.next_delta`) rules
    that out for a consistent auction state, so this is an engine bug, not
    an input the caller can fix; it is deliberately not recoverable.  The
    message names the ratio, the bidder of largest ε-CS slack
    ``π_j - (w - p)`` and the rank holding its assignment pair.
    """


def _extract(
    grid: ProcGrid, A: DistBlockMatrix, cp: np.ndarray, ir: np.ndarray,
    gcols: np.ndarray, w_eff: np.ndarray, w_orig: np.ndarray, owner_blk: np.ndarray,
    price_blk: np.ndarray, n1: int, n2: int, bias_add: float, epsilon: float,
) -> tuple:
    """The better of the two G-matchings the phase's assignment picked, L
    (:func:`~repro.matching.auction.better_matching`) and the phase's dual
    certificate (:func:`~repro.matching.auction.certify`), on every rank:
    ``(rows, cols, weight, L, D, ratio, certified, worst)``.

    The certificate's own leg is one bid over ALL bidders at the final
    prices, down the grid column: every rank learns π of its column block.
    One grid allgather (:func:`~repro.matching.auction.end_phase`, the
    tail's too) then brings every matched pair of each weight block to
    every rank, which :func:`~repro.matching.auction.better_matching`
    sums in the canonical item-index order the twin does (M1 by row, M2 by
    column), so the float weight sums — hence the choice and L — are
    grid-invariant and bit-identical to the serial twin's.  It also
    carries the price and profit shares (row
    block i from grid column 0, column block j from grid row 0: each once;
    ``fsum`` makes D order-free) and each rank's ``worst`` triple (slack,
    bidder, rank) of its assignment pairs, for a certificate that fails.
    """
    bc, best, brow, bw, second = top2_cols(cp, ir, w_eff, np.arange(cp.size - 1), price_blk)
    _, profit_blk, *_ = combine_partials(*concat_pieces(allgather_arrays(
        grid.colcomm, bc + A.col_lo, best, brow + A.row_lo, bw, second)))
    grows = ir + A.row_lo
    matched = owner_blk[ir] == gcols
    slack = (profit_blk[gcols - A.col_lo] - w_eff + price_blk[ir])[matched]
    worst = np.array([slack.max(), gcols[matched][slack.argmax()], grid.comm.rank]
                     if slack.size else [])
    m1 = matched & (grows < n1) & (gcols < n2)
    m2 = matched & (grows >= n1) & (gcols >= n2)
    dual = np.concatenate((price_blk if grid.j == 0 else price_blk[:0],
                           profit_blk if grid.i == 0 else profit_blk[:0]))
    return end_phase(grid.comm, (grows[m1], gcols[m1], w_orig[m1]),
                     (gcols[m2] - np.int64(n2), grows[m2] - np.int64(n1), w_orig[m2]),
                     dual, worst, price_blk[:0], bias_add, epsilon)


def _uncertified(phase_no: int, pick: tuple, epsilon: float) -> CertificateError:
    """The error of a floor phase whose certificate ``pick`` fails, naming
    the bidder of largest slack of every rank's ``worst`` triple."""
    slack, bidder, rank = max(pick[7].reshape(-1, 3).tolist())
    return CertificateError(
        f"epsilon-phase {phase_no} ran at the ladder's floor yet certifies "
        f"only W/(D/2) = {pick[5]:.6g} < 1-eps = {1.0 - epsilon:.6g}: "
        f"bidder {int(bidder)} (held on rank {int(rank)}) has the largest "
        f"eps-CS slack pi - (w - p) = {slack:.6g}"
    )


def mwm_dist_spmd(
    comm: Communicator,
    coo_on_root: "COO | None",
    weights_on_root: "np.ndarray | None",
    pr: int,
    pc: int,
    *,
    epsilon: float = 0.05,
    cardinality_bias: float = 0.0,
    checkpoint_store: "CheckpointStore | None" = None,
    resume: "Checkpoint | None" = None,
) -> tuple[np.ndarray, np.ndarray, DistStats]:
    """The per-rank body of MWM-DIST (launch via :func:`run_mwm_dist`).

    ``coo_on_root``/``weights_on_root`` live on rank 0 (None elsewhere).
    Returns globally assembled ``(mate_r, mate_c)`` on every rank — a
    matching of the ORIGINAL graph with
    ``weight >= (1 - epsilon) * OPT`` over positive weights — and this
    rank's ``stats``, whose per-rank counters :func:`~repro.matching.job.
    launch` sums; ``stats.matching_weight`` carries the objective and
    ``stats.auction_prices`` the final doubled-graph prices (for ε-CS
    assertions).  After every round :func:`~repro.matching.job.
    tail_is_cheaper` prices the job's latency so far against gathering
    the graph; once it fires, every rank finishes on the serial twin's
    loop (``stats.tail_*``), whose only collectives are one grid allgather
    per phase-end.  Given a store, the job snapshots after every ε-phase
    the grid completes (:meth:`~repro.matching.job.Job.snapshot`); a crash
    before the first, or inside the tail, restarts from the last one (the
    hand-off writes none) or from scratch, and the replay hands off at the
    same round: the snapshot carries the steps paid.
    ``cardinality_bias`` trades weight for cardinality by shifting real
    edges against the zero-weight dummy diagonal (>= 1 makes any real edge
    beat going unmatched).
    """
    grid = ProcGrid(comm, pr, pc)
    stats = DistStats()
    stats.epsilon = float(epsilon)

    # -- problem setup: root doubles the graph, every rank derives the
    # identical ladder from the broadcast header ---------------------------------
    # rank 0's deduped edge list, kept for the tail hand-off (empty elsewhere)
    e_rows = e_cols = np.empty(0, np.int64)
    w_in = np.empty(0)
    if comm.rank == 0:
        assert coo_on_root is not None and weights_on_root is not None
        n1, n2 = coo_on_root.nrows, coo_on_root.ncols
        # parallel edges collapse to their heaviest copy (the only one an
        # auction could transact) — same kernel as the serial twin, so the
        # two engines see the identical edge list
        e_rows, e_cols, w_in = dedup_edges(
            coo_on_root.rows, coo_on_root.cols, weights_on_root
        )
        scale = float(w_in.max()) if w_in.size else 0.0
        header = (n1, n2, scale)
    else:
        header = None
    n1, n2, scale = comm.bcast(header, root=0)
    stats.weight_scale = scale
    bias_add = cardinality_bias * scale
    scale_eff = scale + bias_add
    sec_floor = -(scale_eff + 1.0)

    if comm.rank == 0:
        N, *doubled = double_for_assignment(n1, n2, e_rows, e_cols, w_in, bias_add)
        # groups are disjoint by construction
        edges = (COO(N, N, *doubled[:2], dedup=False), *doubled[2:])
    else:
        edges = (None,)
    # A is the block geometry; the block itself is four local CSC arrays:
    # bids go by the effective weights, matchings are scored by the original
    A, rows, cols, w_eff, w_orig = scatter_edges(grid, *edges)
    cp, ir, w_eff, w_orig = build_csc(*A.block_shape, rows, cols, w_eff, w_orig)
    # the set-up copies are dead: none is held through the auction (nor
    # through the tail, whose copy of the graph every rank holds)
    edges = doubled = rows = cols = None
    gcols = np.repeat(np.arange(A.col_lo, A.col_hi, dtype=np.int64), np.diff(cp))
    N = A.nrows

    # the replicas: row block i's item -> bidder map and prices (identical
    # along grid row i), column block j's free-bidder bitmap (identical down
    # grid column j)
    owner_blk = np.full(A.row_hi - A.row_lo, NULL, dtype=np.int64)
    price_blk = np.zeros(A.row_hi - A.row_lo)
    free_blk = np.ones(A.col_hi - A.col_lo, dtype=bool)
    # what this rank sends of the row-block replicas to a grid allgather:
    # grid column 0 sends them, every other rank holds copies
    lead = slice(None) if grid.j == 0 else slice(0)

    # the ε-ladder's state: the increment of the next phase (None: done)
    # and L, the effective weight of the best matching extracted so far
    lower, phase_no = 0.0, 0
    delta = next_delta(None, scale_eff, lower, N, epsilon)
    # the steps the job has paid, which the hand-off rule is asked with, its
    # counters and its snapshots
    job = Job(grid, stats, checkpoint_store, resume)
    if resume is not None:
        owner_blk[:] = resume.mate[A.row_lo:A.row_hi]
        price_blk[:] = resume.aux["prices"][A.row_lo:A.row_hi]
        delta, lower = float(resume.aux["ladder"][0]) or None, float(resume.aux["ladder"][1])
        phase_no = resume.phase

    pick = None
    # the hand-off's words at most: rank 0's m deduped edges as (row, col,
    # weight) triples — the doubled graph holds 2m + N — the N items and
    # prices, and every rank's pack header
    tail, handoff_words = False, 3 * (A.nnz - N) // 2 + 2 * N + 3 * grid.nprocs
    while delta is not None:
        phase_no += 1
        phase_boundary(grid, stats, phase_no)
        with tspan(grid.comm, "phase", cat="phase", phase=phase_no):
            # each ε-phase restarts the assignment; prices persist (sound
            # for PERFECT assignment — the price sums cancel in the bound)
            owner_blk.fill(NULL)
            free_blk.fill(True)
            active = N  # free bidders grid-wide; every rank tracks it exactly
            while active and not tail:
                if stats.auction_rounds >= MAX_ROUNDS:
                    raise RuntimeError(f"auction exceeded {MAX_ROUNDS} rounds")
                stats.auction_rounds += 1
                stats.bids_placed += active
                with tspan(grid.comm, "auction_round", cat="phase", round=stats.auction_rounds):
                    with tspan(grid.comm, "bid"):
                        # per-bidder (best, second) profits over THIS block,
                        # shipped under global ids
                        fb = np.flatnonzero(free_blk)
                        bc, best, brow, bw, second = top2_cols(cp, ir, w_eff, fb, price_blk)
                        stats.edges_examined += int((cp[fb + 1] - cp[fb]).sum())
                        pieces = allgather_arrays(
                            grid.colcomm, bc + A.col_lo, best, brow + A.row_lo, bw, second
                        )
                        cc, cb, cr, cw, cs = combine_partials(*concat_pieces(pieces))
                        cbid = compute_bids(cb, cw, cs, delta, sec_floor)
                    with tspan(grid.comm, "resolve"):
                        # each bid enters the row exchange once: at the rank
                        # of this column whose row block holds its best item
                        mine = (cr >= A.row_lo) & (cr < A.row_hi)
                        pieces = allgather_arrays(grid.rowcomm, cr[mine], cbid[mine], cc[mine])
                        ridx, wbid, winner = resolve_bids(*concat_pieces(pieces))
                        prev = owner_blk[ridx - A.row_lo]
                        owner_blk[ridx - A.row_lo] = winner
                        price_blk[ridx - A.row_lo] = wbid
                        # resolve is replicated along the grid row: one
                        # rank of it counts the row block's accepts
                        stats.price_updates += int(ridx.size) * (grid.j == 0)
                    with tspan(grid.comm, "notify"):
                        # winners were free at round start and evictees
                        # matched, so the two sets are disjoint
                        ev = prev[prev != NULL]
                        won = winner[(winner >= A.col_lo) & (winner < A.col_hi)]
                        lost = ev[(ev >= A.col_lo) & (ev < A.col_hi)]
                        fresh = np.array([ridx.size - ev.size], np.int64)
                        for won_k, lost_k, fresh_k in allgather_arrays(
                            grid.colcomm, won, lost, fresh
                        ):
                            free_blk[won_k - A.col_lo] = False
                            free_blk[lost_k - A.col_lo] = True
                            active -= int(fresh_k[0])
                # the round boundary: once the job's latency so far
                # outprices gathering the graph, every rank finishes alone.
                # The job's steps are the same on every rank (a round's
                # collectives are row/column allgathers), so all decide alike
                tail = tail_is_cheaper(job.steps(), grid.nprocs, handoff_words, A.nnz)
            if tail:
                break
            # every phase's assignment is extracted and certified: a
            # certified phase is the last, and an uncertified one may raise L
            pick = _extract(grid, A, cp, ir, gcols, w_eff, w_orig, owner_blk, price_blk,
                            n1, n2, bias_add, epsilon)
            stats.edges_examined += ir.size
            lower = max(lower, pick[3])
            delta = next_delta(delta, scale_eff, lower, N, epsilon, pick[6])
            if delta is None and not pick[6]:
                raise _uncertified(phase_no, pick, epsilon)
            # a phase ends on a perfect assignment, its prices the next
            # phase's warm start and (next increment, L) the ladder's state
            job.snapshot(phase_no, A.row_lo, owner_blk[lead], {"prices": price_blk[lead]},
                         ladder=np.array([delta or 0.0, lower]))
    if tail:
        # the tail: one grid allgather hands every rank rank 0's edge list and
        # the auction state (row block i's items and prices from grid column
        # 0), and each finishes this phase and the later ones on the serial
        # twin's loop: the rounds on every rank, each phase-end split p ways
        with tspan(grid.comm, "tail", cat="phase", phase=phase_no,
                   round=stats.auction_rounds + 1):
            cp = ir = w_eff = w_orig = gcols = None  # the block: the tail reads its own copy
            e_rows, e_cols, w_in, items, prices = concat_pieces(allgather_arrays(
                grid.comm, e_rows, e_cols, w_in, owner_blk[lead], price_blk[lead]))
            serial = AuctionState(prices, items, delta, lower, stats.auction_rounds,
                                  stats.bids_placed)
            auction_phase_loop(
                n1, n2, e_rows, e_cols, w_in, serial, bias_add=bias_add,
                scale_eff=scale_eff, epsilon=epsilon, fresh=False,
                on_phase=lambda n: phase_boundary(grid, stats, phase_no + n, serial=True),
                comm=grid.comm,
            )
        stats.tail_phases = serial.phases + 1
        stats.tail_rounds = serial.rounds - stats.auction_rounds
        # the replicated reads, its bids', count on every rank; each rank's
        # share of the phase-ends only in its own edges_examined
        stats.tail_edges = serial.edges - serial.end_edges
        phase_no += serial.phases
        stats.auction_rounds, stats.bids_placed, pick = serial.rounds, serial.bids, serial.pick
        # the tail's accepts are replicated on every rank: rank 0 counts them
        stats.price_updates += serial.price_updates * (grid.rank == 0)
        stats.edges_examined += serial.edges
        if not pick[6]:
            raise _uncertified(phase_no, pick, epsilon)
    elif pick is None:  # no phase ran: no positive weight, or resumed past the last
        pick = _extract(grid, A, cp, ir, gcols, w_eff, w_orig, owner_blk, price_blk,
                        n1, n2, bias_add, epsilon)
        stats.edges_examined += ir.size

    ii, jj, weight, _, stats.dual_bound, stats.certified_ratio = pick[:6]
    g_mate_r = np.full(n1, NULL, dtype=np.int64)
    g_mate_c = np.full(n2, NULL, dtype=np.int64)
    g_mate_r[ii] = jj
    g_mate_c[jj] = ii

    stats.phases = phase_no
    stats.matching_weight = weight
    stats.final_cardinality = int(ii.size)
    stats.auction_prices = serial.prices if tail else concat_pieces(
        allgather_arrays(grid.colcomm, price_blk))[0]
    snapshot_ledger(grid, stats)
    return g_mate_r, g_mate_c, stats


def run_mwm_dist(
    coo: COO,
    weights: np.ndarray,
    pr: int,
    pc: int,
    *,
    epsilon: float = 0.05,
    cardinality_bias: float = 0.0,
    timeout: "float | None" = None,
    verify: bool = False,
    faults=None,
    trace: "bool | str" = False,
    backend: "str | None" = None,
    checkpoint_store: "CheckpointStore | None" = None,
    max_restarts: int = 0,
) -> tuple[np.ndarray, np.ndarray, DistStats]:
    """Launch MWM-DIST on a simulated pr × pc process grid.

    The weighted matrix starts on rank 0 and is scattered (doubled into
    the perfect-assignment form first); the returned mate vectors describe
    a matching of the ORIGINAL graph with
    ``weight >= (1 - epsilon) * OPT`` (positive weights).  The runtime
    keywords (``verify``, ``faults``, ``trace``, ``backend``, ``timeout``)
    and the recovery keywords (``checkpoint_store``, ``max_restarts``)
    behave exactly as in
    :func:`~repro.matching.mcm_dist.run_mcm_dist` — one driver,
    :func:`~repro.matching.job.launch`, runs both engines, and a run given
    no store and no restarts writes no checkpoint.  What differs is the
    snapshot's content: the doubled graph's item → bidder mates AND the
    item prices and ladder state (the checkpoint ``aux`` slot), after every
    completed ε-phase.  A resumed ε-phase re-fights its own
    bidding wars from scratch but inherits the prices the completed phases
    established, so a recovered run lands on the same matching (bit-identical
    mates) as a fault-free one.
    """
    return launch(
        mwm_dist_spmd, (coo, weights), pr, pc,
        faults=faults, checkpoint_store=checkpoint_store, max_restarts=max_restarts,
        timeout=timeout, verify=verify, trace=trace, backend=backend,
        epsilon=epsilon, cardinality_bias=cardinality_bias,
    )
