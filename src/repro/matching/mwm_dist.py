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
far (every one since it began, :class:`~repro.matching.job.JobSteps`)
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

Launch, recovery, the counters' sums, the checkpoint write and the
closing ledger are the job shell the cardinality engine uses too
(:mod:`repro.matching.job`), and no collective carries a counter; the
snapshot is this engine's own: it carries the item PRICES, the ε-ladder's
state (next increment, L) and the round / bid / price-update counters
alongside the doubled mate vectors (the
:class:`~repro.runtime.checkpoint.Checkpoint` ``aux`` slot): mates alone
are not a valid auction restart point — a phase resumed with zeroed prices
would forfeit the warm start the earlier ε-phases paid for, one resumed
without L would climb a different ladder, and one resumed with zeroed
counters would report only the attempt that survived.
"""

from __future__ import annotations

import numpy as np

from ..distmat.grid import ProcGrid
from ..distmat.ops import allgather_arrays, concat_pieces
from ..distmat.spmat import DistBlockMatrix, scatter_edges
from ..runtime.checkpoint import Checkpoint, CheckpointStore
from ..runtime.comm import SUM, Communicator
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
from .job import (
    DistStats,
    JobSteps,
    launch,
    phase_boundary,
    save_checkpoint,
    snapshot_ledger,
    tail_is_cheaper,
)


def _checkpoint(
    grid: ProcGrid, store: CheckpointStore, phase: int, owner_blk: np.ndarray,
    price_blk: np.ndarray, delta: "float | None", lower: float, stats: DistStats,
    rent: JobSteps, counts: "tuple[int, int, int, int]" = (0, 0, 0, 0),
) -> None:
    """Snapshot (doubled mates, item prices, ladder state, counters) after a
    completed ε-phase (the assembly is a row allreduce and a column
    allgather; the write protocol is
    :func:`~repro.matching.job.save_checkpoint`).  The ladder is the next
    increment (0 once the ladder is done) and L, so a resumed run climbs
    down the same rungs; the counters are the rounds and bids so far
    (replicated), then each row block's accepted price updates and edges
    read (this rank's, summed along the grid row), so a resumed run reports
    the fault-free totals; and the steps the job has paid (``rent``, which
    the snapshot's own collectives stay out of), so it hands off where the
    fault-free run does."""
    aux: dict = {}
    with tspan(grid.comm, "checkpoint", cat="phase", phase=phase), rent.checkpoint(aux):
        # every rank holds its whole row block, and the pr ranks of a grid
        # column hold row blocks 0..pr-1 in rank order
        row_edges = grid.rowcomm.allreduce(counts[3], op=SUM)
        g_item, prices, updates = concat_pieces(allgather_arrays(
            grid.colcomm, owner_blk, price_blk, np.array([counts[2], row_edges])))
        # a phase ends on a perfect assignment (phase 0: nothing owned),
        # so the bidder side is the inverse of the item side
        owned = np.flatnonzero(g_item != NULL)
        g_bidder = np.full(g_item.size, NULL, dtype=np.int64)
        g_bidder[g_item[owned]] = owned
        ladder = np.array([delta or 0.0, lower])
        ck = Checkpoint(phase=phase, mate_row=g_item, mate_col=g_bidder,
                        aux={**aux, "prices": prices, "ladder": ladder,
                             "counts": np.array([*counts[:2], *updates])})
        save_checkpoint(grid, store, ck, stats)


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
    checkpoint_every: int = 0,
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
    per phase-end.  A crash inside that tail restarts from the
    last completed phase's snapshot (the hand-off writes none), which
    carries the steps paid, and the replay hands off at the same round.
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

    # the ε-ladder's state: the increment of the next phase (None: done)
    # and L, the effective weight of the best matching extracted so far
    lower, phase_no = 0.0, 0
    delta = next_delta(None, scale_eff, lower, N, epsilon)
    rounds = bids = updates_row = edges_local = 0
    # the steps the job has paid, which the hand-off rule is asked with
    rent = JobSteps(grid, resume)
    if resume is not None:
        owner_blk[:] = resume.mate_row[A.row_lo:A.row_hi]
        price_blk[:] = resume.aux["prices"][A.row_lo:A.row_hi]
        delta, lower = float(resume.aux["ladder"][0]) or None, float(resume.aux["ladder"][1])
        counts = resume.aux["counts"]
        rounds, bids, updates_row = (int(c) for c in counts[[0, 1, 2 + 2 * grid.i]])
        # rank 0 takes back the grid's edge reads; launch adds the rest
        edges_local = int(counts[3::2].sum()) * (grid.rank == 0)
        phase_no = resume.phase
    elif checkpoint_store is not None:
        # phase-0 snapshot: uniform restart bookkeeping with the MCM engine
        _checkpoint(grid, checkpoint_store, 0, owner_blk, price_blk, delta, lower, stats, rent)

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
                if rounds >= MAX_ROUNDS:
                    raise RuntimeError(f"auction exceeded {MAX_ROUNDS} rounds")
                rounds += 1
                bids += active
                with tspan(grid.comm, "auction_round", cat="phase", round=rounds):
                    with tspan(grid.comm, "bid"):
                        # per-bidder (best, second) profits over THIS block,
                        # shipped under global ids
                        fb = np.flatnonzero(free_blk)
                        bc, best, brow, bw, second = top2_cols(cp, ir, w_eff, fb, price_blk)
                        edges_local += int((cp[fb + 1] - cp[fb]).sum())
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
                        updates_row += int(ridx.size)
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
                tail = tail_is_cheaper(rent.total(), grid.nprocs, handoff_words, A.nnz)
            if tail:
                break
            # every phase's assignment is extracted and certified: a
            # certified phase is the last, and an uncertified one may raise L
            pick = _extract(grid, A, cp, ir, gcols, w_eff, w_orig, owner_blk, price_blk,
                            n1, n2, bias_add, epsilon)
            edges_local += ir.size
            lower = max(lower, pick[3])
            delta = next_delta(delta, scale_eff, lower, N, epsilon, pick[6])
            if delta is None and not pick[6]:
                raise _uncertified(phase_no, pick, epsilon)
            if (
                checkpoint_store is not None
                and checkpoint_every > 0
                and phase_no % checkpoint_every == 0
            ):
                _checkpoint(grid, checkpoint_store, phase_no, owner_blk, price_blk,
                            delta, lower, stats, rent, (rounds, bids, updates_row, edges_local))
    if tail:
        # the tail: one grid allgather hands every rank rank 0's edge list and
        # the auction state (row block i's items and prices from grid column
        # 0), and each finishes this phase and the later ones on the serial
        # twin's loop: the rounds on every rank, each phase-end split p ways
        with tspan(grid.comm, "tail", cat="phase", phase=phase_no, round=rounds + 1):
            cp = ir = w_eff = w_orig = gcols = None  # the block: the tail reads its own copy
            lead = slice(None) if grid.j == 0 else slice(0)
            e_rows, e_cols, w_in, items, prices = concat_pieces(allgather_arrays(
                grid.comm, e_rows, e_cols, w_in, owner_blk[lead], price_blk[lead]))
            serial = AuctionState(prices, items, delta, lower, rounds, bids)
            auction_phase_loop(
                n1, n2, e_rows, e_cols, w_in, serial, bias_add=bias_add,
                scale_eff=scale_eff, epsilon=epsilon, fresh=False,
                on_phase=lambda n: phase_boundary(grid, stats, phase_no + n, serial=True),
                comm=grid.comm,
            )
        stats.tail_phases, stats.tail_rounds = serial.phases + 1, serial.rounds - rounds
        # the replicated reads, its bids', count on every rank; each rank's
        # share of the phase-ends only in its own edges_examined
        stats.tail_edges = serial.edges - serial.end_edges
        phase_no += serial.phases
        rounds, bids, pick = serial.rounds, serial.bids, serial.pick
        edges_local += serial.edges
        if not pick[6]:
            raise _uncertified(phase_no, pick, epsilon)
    elif pick is None:  # no phase ran: no positive weight, or resumed past the last
        pick = _extract(grid, A, cp, ir, gcols, w_eff, w_orig, owner_blk, price_blk,
                        n1, n2, bias_add, epsilon)
        edges_local += ir.size

    ii, jj, weight, _, stats.dual_bound, stats.certified_ratio = pick[:6]
    g_mate_r = np.full(n1, NULL, dtype=np.int64)
    g_mate_c = np.full(n2, NULL, dtype=np.int64)
    g_mate_r[ii] = jj
    g_mate_c[jj] = ii

    stats.phases = phase_no
    stats.matching_weight = weight
    stats.final_cardinality = int(ii.size)
    stats.auction_rounds = rounds
    stats.bids_placed = bids
    stats.auction_prices = serial.prices if tail else concat_pieces(
        allgather_arrays(grid.colcomm, price_blk))[0]
    # this rank's shares, which launch sums: resolve is replicated along
    # each grid row, so one rank per row reports its accepts; the tail's,
    # replicated on every rank, count once, on rank 0
    stats.price_updates = updates_row * (grid.j == 0) + (
        serial.price_updates * (grid.rank == 0) if tail else 0)
    stats.edges_examined = edges_local
    snapshot_ledger(grid, stats)
    return g_mate_r, g_mate_c, stats


def _mwm_rank_main(
    comm: Communicator, coo: COO, weights: np.ndarray, pr: int, pc: int, **mwm_kwargs
):
    """Per-rank entry point of :func:`run_mwm_dist` (module-level so a
    process backend can pickle it)."""
    data = (coo, weights) if comm.rank == 0 else (None, None)
    return mwm_dist_spmd(comm, data[0], data[1], pr, pc, **mwm_kwargs)


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
    checkpoint_every: int = 1,
    checkpoint_store: "CheckpointStore | None" = None,
    max_restarts: int = 0,
) -> tuple[np.ndarray, np.ndarray, DistStats]:
    """Launch MWM-DIST on a simulated pr × pc process grid.

    The weighted matrix starts on rank 0 and is scattered (doubled into
    the perfect-assignment form first); the returned mate vectors describe
    a matching of the ORIGINAL graph with
    ``weight >= (1 - epsilon) * OPT`` (positive weights).  The runtime
    keywords (``verify``, ``faults``, ``trace``, ``backend``, ``timeout``)
    and the recovery keywords (``checkpoint_every``, ``checkpoint_store``,
    ``max_restarts``) behave exactly as in
    :func:`~repro.matching.mcm_dist.run_mcm_dist` — one driver,
    :func:`~repro.matching.job.launch`, runs both engines, and a run given
    no store and no restarts writes no checkpoint.  What differs is the
    snapshot: it carries the doubled-graph mate vectors AND the item prices
    and ladder state (the checkpoint ``aux`` slot).  A resumed ε-phase re-fights its own
    bidding wars from scratch but inherits the prices the completed phases
    established, so a recovered run lands on the same matching (bit-identical
    mates) as a fault-free one.
    """
    return launch(
        _mwm_rank_main, (coo, weights), pr, pc,
        faults=faults, checkpoint_every=checkpoint_every,
        checkpoint_store=checkpoint_store, max_restarts=max_restarts,
        timeout=timeout, verify=verify, trace=trace, backend=backend,
        epsilon=epsilon, cardinality_bias=cardinality_bias,
    )
