"""Synchronized-auction primitives for maximum WEIGHT bipartite matching.

The auction algorithm (Bertsekas) treats columns as *bidders* and rows as
*items* carrying prices.  An unmatched bidder j looks at its incident
edges' profits ``w_ij - p_i``, picks the best item i*, and raises that
item's price to the point where i* becomes exactly as attractive as the
bidder's second-best option, plus a bid increment ``delta``.  Each item
accepts the highest bid it received, evicting its previous mate.

**Assignment reduction.**  ε-scaling (reusing prices across phases of
shrinking ``delta``) is only sound for the PERFECT assignment problem:
with both matchings perfect, the price sums in the primal-dual bound
cancel, giving ``weight(M) >= OPT - N*delta`` no matter how inflated the
inherited prices are.  The "unmatched is worth 0, retire at profit <= 0"
variant has no such luck — a coarse phase can overprice an item by its
phase's delta and permanently scare off the only bidder that wanted it.
So the engines solve MWM(G) via the standard doubling
(:func:`double_for_assignment`): a (n1+n2) × (n1+n2) graph carrying the
original weight block, its transpose, and zero-weight dummy diagonal
edges that make a perfect matching always exist.  The two weight blocks
yield two candidate matchings of G; the better one satisfies
``weight >= (1 - epsilon) * OPT``, proved a posteriori by the phase's own
dual certificate (see the module tests for the proof obligations asserted
as ε-complementary slackness, and ``tests/matching/test_auction_ladder.py``
for the certified ladder and its floor).

This module holds the *pure-NumPy round kernels* shared verbatim by the
serial reference engine (:mod:`repro.matching.reference.auction_twin`) and
the distributed engine (:mod:`repro.matching.mwm_dist`):

* :func:`next_delta` — the certified ε-scaling ladder of bid increments:
  a certified phase ends it, and a floor set by the best matching the run
  holds backstops it;
* :func:`better_matching` — the extraction's choice between the two
  G-matchings, and the lower bound L it feeds the ladder;
* :func:`certify` — the phase's dual bound D and its verdict
  ``L >= (1 - ε)·D/2``;
* :func:`end_phase` — both, on every rank, after one allgather of each
  rank's share of the pairs and the dual's terms;
* :func:`top2_cols` — per-bidder (best, second-best) profits over a CSC
  block — the (select, +)-semiring SpMV of one bidding round;
* :func:`combine_partials` — the associative merge of per-block partial
  (best, second) results at the bidder's owner rank;
* :func:`compute_bids` — the Bertsekas bid from combined (best, second);
* :func:`resolve_bids` — per-item max-bid resolution (the column-wise
  max-reduce), riding :func:`repro.sparse.semiring.reduce_candidates`
  with float keys;
* :func:`auction_phase_loop` — the whole serial round/ladder loop over an
  :class:`AuctionState`, resumable between any two rounds: the serial twin
  runs it from the first round, MWM-DIST's tail on every rank from the round it
  handed off at.

Because every kernel is deterministic (profit ties break to the smallest
row id, bid ties to the smallest bidder id) and all bids of one round are
computed against the same round-start prices (Jacobi style), the round
sequence is a function of global state only — the distributed engine is
bit-identical to the serial twin on every grid shape, backend, and
aggregation setting.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ..distmat.ops import allgather_arrays, concat_pieces
from ..sparse.semiring import SR_MAX_PARENT, reduce_candidates
from ..sparse.spvec import NULL

_NEG_INF = -np.inf

#: the runaway guard of both auction engines: a run that reaches this many
#: bidding rounds raises instead of spinning
MAX_ROUNDS = 1_000_000


def next_delta(
    d: "float | None", scale: float, lower: float, n: int, epsilon: float,
    certified: bool = False,
) -> "float | None":
    """The certified ε-scaling ladder, one rung at a time: the bid
    increment of the next phase, or None when the run is done.

    ``d`` is the increment the last phase ran at (None before the first),
    ``scale`` the (bias-shifted) maximum edge weight, ``lower`` — L — the
    effective weight of the best matching the run has extracted so far,
    ``n`` the assignment size (``n1 + n2`` after the doubling), and
    ``certified`` the last phase's :func:`certify` verdict: a certified
    phase ends the run.  The first rung is ``min(ε, 1/8)·scale``; an
    uncertified phase is followed by one 8 times finer (exact in binary
    floating point: an exponent shift), clamped below at the floor
    ``ε·max(scale, L)/n``, and the ladder also ends once a phase has run at
    or below the floor.  That backstop always certifies: scale (one edge)
    and L (a matching the run holds) are weights of real matchings, so
    ``n·d <= ε·OPT_eff <= ε·D/2`` and the phase's assignment, within
    ``n·d`` of D, has a half of weight ``>= (1 - ε/2)·D/2``.  A problem with
    no positive scale has no rung at all.
    """
    if epsilon <= 0.0:
        raise ValueError(f"epsilon must be > 0, got {epsilon}")
    if scale <= 0.0 or certified:
        return None
    floor = epsilon * max(scale, lower) / max(1, int(n))
    if d is None:
        return max(min(epsilon, 0.125) * scale, floor)
    return None if d <= floor else max(d / 8.0, floor)


def certify(
    prices: np.ndarray, profits: np.ndarray, lower: float, epsilon: float
) -> tuple[float, float, bool]:
    """The dual certificate of one ε-phase: ``(D, ratio, certified)``.

    ``prices`` are all N item prices and ``profits`` every bidder's best
    profit ``π_j = max_i(w_eff - p_i)`` at those prices, so (p, π) is
    feasible for the assignment dual and ``D = Σp + Σπ >= 2·OPT_eff`` by
    weak duality (the doubled optimum is two copies of OPT_eff).  ``lower``
    is the effective weight L of the matching the phase extracted; the
    phase is certified when ``ratio = L / (D/2) >= 1 - ε``, which proves
    ``L >= (1 - ε)·OPT_eff``.  ``math.fsum`` is exactly rounded, hence
    order-free, so D and the verdict are bit-identical however the vectors
    were gathered.  ``D <= 0`` leaves only the empty optimum: ratio 1.
    """
    dual = math.fsum(np.concatenate((prices, profits)).tolist())
    ratio = 2.0 * lower / dual if dual > 0.0 else 1.0
    return dual, ratio, ratio >= 1.0 - epsilon


def better_matching(m1: tuple, m2: tuple, bias_add: float) -> tuple:
    """The better of the two G-matchings an assignment picked.

    Each candidate is ``(rows, cols, weights)`` in any order: they are
    summed in their canonical order — M1 by row, M2 by column, whichever
    rank or grid gathered them, and in the serial twin — so the float
    sums, and hence the choice, are bit-identical everywhere.  Pairs of
    non-positive weight (dummy-backed included) are dropped.  Returns
    ``(rows, cols, weight, lower)``: the heavier matching by original
    weight, and L, the larger EFFECTIVE weight ``Σ(w + bias_add)`` of the
    two over their pairs of positive effective weight — a real matching's,
    so never above OPT_eff, and at least half the assignment's effective
    weight, which is what lets the floor phase certify (a pair with
    ``w <= 0 < w + bias_add`` is dropped from the result but counts in L).
    """
    kept, lower = [], 0.0
    for (rows, cols, w), key in ((m1, 0), (m2, 1)):
        order = np.argsort((rows, cols)[key])
        rows, cols, w = rows[order], cols[order], w[order]
        pos = w > 0.0
        kept.append((rows[pos], cols[pos], float(w[pos].sum())))
        eff = w + bias_add
        lower = max(lower, float(eff[eff > 0.0].sum()))
    rows, cols, weight = kept[1] if kept[1][2] > kept[0][2] else kept[0]
    return rows, cols, weight, lower


def column_share(cp: np.ndarray, comm) -> tuple[int, int]:
    """The bidders ``[lo, hi)`` whose edges this rank of ``comm`` reads at
    a phase-end: a contiguous range of the CSC ``cp`` holding about 1/p of
    its edges, the same bounds on every rank (all of them with no
    ``comm``), so rank order is column order."""
    rank, size = (0, 1) if comm is None else (comm.rank, comm.size)
    lo, hi = np.searchsorted(cp, (rank * int(cp[-1]) // size, (rank + 1) * int(cp[-1]) // size))
    return int(lo), int(hi)


def end_phase(
    comm, m1: tuple, m2: tuple, dual: np.ndarray, worst: np.ndarray,
    prices: np.ndarray, bias_add: float, epsilon: float,
) -> tuple:
    """An ε-phase's end, the grid's and the serial tail's alike:
    ``(rows, cols, weight, L, D, ratio, certified, worst)``, the same on
    every rank.  One allgather over ``comm`` (None: one process holds every
    piece) concatenates each rank's pieces in rank order — the (rows, cols,
    original weights) of its assignment pairs in the real block (``m1``)
    and in the transpose block mapped back (``m2``), its share ``dual`` of
    D's terms and its ``worst`` triple (slack, bidder, rank) — then
    :func:`better_matching` picks the matching and :func:`certify` sums D
    over the gathered shares and ``prices``, the terms every rank holds."""
    pieces = (*m1, *m2, dual, worst)
    if comm is not None:
        pieces = concat_pieces(allgather_arrays(comm, *pieces))
    rows, cols, weight, lower = better_matching(pieces[:3], pieces[3:6], bias_add)
    return rows, cols, weight, lower, *certify(prices, pieces[6], lower, epsilon), pieces[7]


def dedup_edges(
    rows: np.ndarray, cols: np.ndarray, weights: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Collapse parallel edges to the heaviest copy, (col, row)-sorted.

    An auction can only ever transact an (i, j) pair at its best weight —
    lighter duplicates change no bid and no price — but they WOULD corrupt
    the bookkeeping around them: both extractions sum ``w_orig`` over
    every nonzero flagged as matched, counting each duplicate once.  Both
    entry points therefore dedup through this one kernel, keeping the
    serial twin and the distributed engine bit-identical on multigraph
    inputs.
    """
    rows = np.asarray(rows, np.int64)
    cols = np.asarray(cols, np.int64)
    weights = np.asarray(weights, np.float64)
    if rows.size == 0:
        return rows, cols, weights
    order = np.lexsort((weights, rows, cols))
    rows, cols, weights = rows[order], cols[order], weights[order]
    last = np.empty(rows.size, dtype=bool)
    last[-1] = True
    np.not_equal(rows[1:], rows[:-1], out=last[:-1])
    last[:-1] |= cols[1:] != cols[:-1]
    return rows[last], cols[last], weights[last]


def double_for_assignment(
    n1: int,
    n2: int,
    rows: np.ndarray,
    cols: np.ndarray,
    weights: np.ndarray,
    bias_add: float = 0.0,
) -> tuple[int, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """MWM(G) → perfect assignment on the doubled graph G'.

    G' has ``N = n1 + n2`` items and bidders: items ``0..n1`` are the
    original rows, items ``n1..N`` the original columns (and vice versa
    for bidders), with four edge groups —

    * real block: item i, bidder j, weight ``w_ij + bias_add``;
    * transpose block: item n1+j, bidder n2+i, weight ``w_ij + bias_add``;
    * dummy diagonals: (item i, bidder n2+i) and (item n1+j, bidder j) at
      weight 0, so the identity-on-dummies perfect matching always exists.

    A perfect matching of G' selects two (independent) matchings of G —
    one per weight block — whose effective weights sum to its total, so
    the better of the two is at least half, and the run ends on the first
    phase whose dual certificate (:func:`certify`) proves that half
    ``>= (1-ε)·OPT_eff``.

    ``bias_add`` is the cardinality/weight knob: real edges are shifted by
    it while dummies stay at 0, so at ``bias_add >= scale`` any real edge
    beats retreating to a dummy and the auction chases cardinality.  (A
    uniform shift of ALL edges would be invisible — perfect matchings all
    have exactly N edges.)

    Returns ``(N, rows', cols', w_eff, w_orig)``; ``w_eff`` is bid on,
    ``w_orig`` (bias-free, dummies 0) is what matchings are scored with.
    """
    rows = np.asarray(rows, np.int64)
    cols = np.asarray(cols, np.int64)
    weights = np.asarray(weights, np.float64)
    ar1 = np.arange(n1, dtype=np.int64)
    ar2 = np.arange(n2, dtype=np.int64)
    z1, z2 = np.zeros(n1), np.zeros(n2)
    drows = np.concatenate([rows, n1 + cols, ar1, n1 + ar2])
    dcols = np.concatenate([cols, n2 + rows, n2 + ar1, ar2])
    w_eff = np.concatenate([weights + bias_add, weights + bias_add, z1, z2])
    w_orig = np.concatenate([weights, weights, z1, z2])
    return n1 + n2, drows, dcols, w_eff, w_orig


def _empty_top2() -> tuple[np.ndarray, ...]:
    e = np.empty(0, np.int64)
    f = np.empty(0, np.float64)
    return e, f.copy(), e.copy(), f.copy(), f.copy()


def top2_cols(
    cp: np.ndarray,
    ir: np.ndarray,
    w: np.ndarray,
    cols: np.ndarray,
    price: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Best and second-best profits per bidding column over one CSC block.

    ``cp`` is a dense column-pointer array (length ncols+1), ``ir``/``w``
    the row ids and weights; ``cols`` the bidding columns (local ids, any
    subset); ``price`` the per-row prices the profits are computed against.

    Returns ``(cols, best, best_row, best_w, second)`` restricted to the
    columns with at least one edge in the block: the winning profit, its
    row and weight, and the profit of the best OTHER edge
    (``-inf`` for single-edge columns).  Ties on profit break to the
    smallest row id, which is what makes distributed pre-reduction +
    :func:`combine_partials` reproduce this function applied globally.
    """
    cols = np.asarray(cols, np.int64)
    cnt = cp[cols + 1] - cp[cols]
    keep = cnt > 0
    kcols, kcnt = cols[keep], cnt[keep]
    tot = int(kcnt.sum())
    if tot == 0:
        return _empty_top2()
    group = np.repeat(np.arange(kcols.size, dtype=np.int64), kcnt)
    # flat CSC positions of every (bidding column, edge) pair
    starts_of = np.concatenate(([0], np.cumsum(kcnt)))[:-1]
    flat = np.arange(tot, dtype=np.int64) + np.repeat(cp[kcols] - starts_of, kcnt)
    rows_e = ir[flat]
    w_e = w[flat]
    profit = w_e - price[rows_e]
    order = np.lexsort((rows_e, -profit, group))
    g_s, r_s, p_s, w_s = group[order], rows_e[order], profit[order], w_e[order]
    first = np.empty(g_s.size, dtype=bool)
    first[0] = True
    np.not_equal(g_s[1:], g_s[:-1], out=first[1:])
    starts = np.flatnonzero(first)
    nxt = starts + 1
    has2 = nxt < g_s.size
    has2[has2] = ~first[nxt[has2]]  # next entry must belong to the same group
    second = np.full(starts.size, _NEG_INF)
    second[has2] = p_s[nxt[has2]]
    return kcols, p_s[starts], r_s[starts], w_s[starts], second


def combine_partials(
    cols: np.ndarray,
    best: np.ndarray,
    best_row: np.ndarray,
    best_w: np.ndarray,
    second: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Merge per-block (best, second) partials into global per-column top-2.

    Each input entry is one block's :func:`top2_cols` result for a column;
    a column may appear once per block holding its edges.  The winner is
    the partial with the largest best profit (ties: smallest row), and the
    global second-best is the max of every partial's ``second`` and the
    best of every NON-winning partial — the associative (best, second)
    combine, evaluated in one vectorized pass.  Returns arrays with one
    entry per distinct column, sorted ascending by column id.
    """
    if cols.size == 0:
        return _empty_top2()
    order = np.lexsort((best_row, -best, cols))
    c_s = cols[order]
    b_s, r_s, w_s, s_s = best[order], best_row[order], best_w[order], second[order]
    first = np.empty(c_s.size, dtype=bool)
    first[0] = True
    np.not_equal(c_s[1:], c_s[:-1], out=first[1:])
    starts = np.flatnonzero(first)
    grp = np.cumsum(first) - 1
    # max of every partial's own second-best (includes the winner's)
    smax = np.full(starts.size, _NEG_INF)
    np.maximum.at(smax, grp, s_s)
    # best profit of the runner-up partial (the entry right after the winner)
    nxt = starts + 1
    has2 = nxt < c_s.size
    has2[has2] = ~first[nxt[has2]]
    b2 = np.full(starts.size, _NEG_INF)
    b2[has2] = b_s[nxt[has2]]
    return c_s[starts], b_s[starts], r_s[starts], w_s[starts], np.maximum(smax, b2)


def compute_bids(
    best: np.ndarray,
    best_w: np.ndarray,
    second: np.ndarray,
    delta: float,
    sec_floor: float,
) -> np.ndarray:
    """The Bertsekas bid: raise the best item's price until it is only
    ``delta`` more attractive than the second-best option.

    ``bid = w_eff - min(max(second, sec_floor), best) + delta``.  The
    ``sec_floor`` clamp keeps single-edge bidders finite (their second
    profit is -inf); the ``min(·, best)`` clamp keeps bids monotone —
    without it, a bidder whose every profit has sunk below the floor
    would compute a bid BELOW the item's current price, and a Jacobi
    round that accepted it would move prices backwards, breaking both
    termination and the standing matches' ε-complementary slackness.
    With the clamps, ``bid >= price + delta`` always (minimal escalation
    in the desperate case) and the accepted pair's new profit
    ``min(max(second, floor), best) - delta >= second - delta`` keeps
    ε-CS in every branch.
    """
    return best_w - np.minimum(np.maximum(second, sec_floor), best) + delta


def resolve_bids(
    rows: np.ndarray, bids: np.ndarray, bidders: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-item max-bid resolution: one winner per row, ties to the
    smallest bidder id.

    Rides the shared :func:`~repro.sparse.semiring.reduce_candidates`
    kernel with a FLOAT comparison key — the weighted (profit, bidder)
    payload shape the kernel's dtype generalization exists for.  The
    pre-sort by bidder makes the stable first-wins reduction deterministic
    regardless of the arrival order of routed bids.
    """
    rows = np.asarray(rows, np.int64)
    bids = np.asarray(bids, np.float64)
    bidders = np.asarray(bidders, np.int64)
    order = np.argsort(bidders, kind="stable")
    return reduce_candidates(
        rows[order], bids[order], bidders[order], SR_MAX_PARENT
    )


def build_csc(
    nrows: int, ncols: int, rows: np.ndarray, cols: np.ndarray, *vals: np.ndarray
) -> tuple[np.ndarray, ...]:
    """Dense-pointer CSC arrays ``(cp, ir, *vals)`` from weighted triples.

    Unlike :class:`~repro.sparse.dcsc.DCSC` this keeps a pointer per column
    (auction blocks are dense in columns and need O(1) per-column access),
    and carries float64 values — any number of parallel value arrays (the
    doubled matrix ships effective AND original weights) are permuted into
    the same (col, row)-sorted order.  Rows within a column are ascending.
    """
    rows = np.asarray(rows, np.int64)
    cols = np.asarray(cols, np.int64)
    order = np.lexsort((rows, cols))
    rows, cols = rows[order], cols[order]
    cp = np.zeros(ncols + 1, dtype=np.int64)
    np.cumsum(np.bincount(cols, minlength=ncols), out=cp[1:])
    return (cp, rows, *(np.asarray(v, np.float64)[order] for v in vals))


@dataclass
class AuctionState:
    """A serial auction between two rounds — what :func:`auction_phase_loop`
    resumes and leaves behind: the doubled graph's item ``prices`` and
    ``mate_item`` (item → bidder, NULL while unowned; the bidder side is its
    inverse), the running rung ``delta`` (None once the ladder is done) and
    L, the counters (``edges``: the edges the top-2 scans read, bids and
    certificates alike, ``end_edges`` the phase-ends' part of them;
    ``phases``: the phases the loop entered), one
    ``ladder`` entry per finished phase (its increment, L after it and its
    certificate ratio), and the last extraction ``pick`` = (rows, cols,
    weight, L, D, ratio, certified, worst)."""

    prices: np.ndarray
    mate_item: np.ndarray
    delta: "float | None"
    lower: float = 0.0
    rounds: int = 0
    bids: int = 0
    price_updates: int = 0
    edges: int = 0
    end_edges: int = 0
    phases: int = 0
    ladder: list = field(default_factory=list)
    pick: tuple = ()


def auction_phase_loop(
    n1: int, n2: int, rows: np.ndarray, cols: np.ndarray, weights: np.ndarray,
    st: AuctionState, *, bias_add: float, scale_eff: float, epsilon: float,
    fresh: bool = True, on_phase=None, comm=None,
) -> None:
    """Run ``st``'s auction on the deduped ``n1 × n2`` graph
    ``(rows, cols, weights)`` until the ε-ladder ends, in place: Jacobi
    rounds until the assignment is perfect, then the phase's extraction and
    certificate, then the next rung.  Each phase restarts the assignment
    (prices persist: sound for PERFECT assignment, the price sums cancel in
    the bound) — except the first when ``fresh`` is False, which finishes
    the assignment ``st`` holds (MWM-DIST's tail takes a phase over mid-way).
    ``on_phase(n)``, when given, runs as the loop starts its n-th phase.

    The rounds are replicated: every rank of ``comm`` runs each one whole.
    The phase-end is split: each rank reads its edge-balanced share of the
    bidders (``end_edges``) for the assignment's pairs and best profits,
    and :func:`end_phase`'s one allgather over ``comm`` brings every rank
    the same pick and certificate.  With no ``comm`` (the serial twin) one
    share is the whole graph and nothing is communicated."""
    # every rank of MWM-DIST's tail holds its own copy, so keep only the CSC,
    # and at zero bias one array for both weights (they are equal)
    N, dr, dc, dweff, dworig = double_for_assignment(n1, n2, rows, cols, weights, bias_add)
    cp, ir, weff, *worig = build_csc(N, N, dr, dc, dweff, *([dworig] if bias_add else []))
    worig = worig[0] if worig else weff
    dr = dc = dweff = dworig = None
    sec_floor = -(scale_eff + 1.0)
    mate_bidder = np.full(N, NULL, dtype=np.int64)
    owned = np.flatnonzero(st.mate_item != NULL)
    mate_bidder[st.mate_item[owned]] = owned
    while st.delta is not None:
        if fresh:
            st.phases += 1
            if on_phase is not None:
                on_phase(st.phases)
            st.mate_item.fill(NULL)
            mate_bidder.fill(NULL)
        fresh = True
        while True:
            bidders = np.flatnonzero(mate_bidder == NULL)
            if bidders.size == 0:
                break  # perfect assignment reached: phase done
            if st.rounds >= MAX_ROUNDS:
                raise RuntimeError(f"auction exceeded {MAX_ROUNDS} rounds")
            kcols, best, brow, bw, second = top2_cols(cp, ir, weff, bidders, st.prices)
            bids = compute_bids(best, bw, second, st.delta, sec_floor)
            ridx, wbid, winner = resolve_bids(brow, bids, kcols)
            prev = st.mate_item[ridx]
            mate_bidder[prev[prev != NULL]] = NULL
            st.mate_item[ridx] = winner
            mate_bidder[winner] = ridx
            st.prices[ridx] = wbid
            st.rounds += 1
            st.bids += int(bidders.size)
            st.price_updates += int(ridx.size)
            st.edges += int((cp[bidders + 1] - cp[bidders]).sum())
        # every phase's assignment is extracted and certified: a certified
        # phase is the last, and an uncertified one's weight may raise L.
        # Each rank reads its share, a contiguous edge-balanced range of
        # bidders [lo, hi) (every column holds its dummy edge, so no
        # segment is empty); rank order is column order.  The assignment's
        # edges in the real block are one G-matching, its edges in the
        # transpose block (mapped back) the other
        lo, hi = column_share(cp, comm)
        ir_s, w_s, wo_s = (x[cp[lo]:cp[hi]] for x in (ir, weff, worig))
        gcols = np.repeat(np.arange(lo, hi, dtype=np.int64), np.diff(cp[lo:hi + 1]))
        hit = st.mate_item[ir_s] == gcols
        m1, m2 = hit & (ir_s < n1) & (gcols < n2), hit & (ir_s >= n1) & (gcols >= n2)
        # every bidder's best profit, the certificate's: top2_cols's best,
        # without its sort
        profit = w_s - st.prices[ir_s]
        profits = np.maximum.reduceat(profit, cp[lo:hi] - cp[lo])
        slack = (profits[gcols - lo] - profit)[hit]
        worst = np.array([slack.max(), gcols[hit][slack.argmax()], 0 if comm is None else comm.rank]
                         if slack.size else [])
        st.edges += ir_s.size
        st.end_edges += ir_s.size
        rr, cc, weight, phase_lower, *certificate = end_phase(
            comm, (ir_s[m1], gcols[m1], wo_s[m1]), (gcols[m2] - n2, ir_s[m2] - n1, wo_s[m2]),
            profits, worst, st.prices, bias_add, epsilon)
        st.lower = max(st.lower, phase_lower)
        st.ladder.append((st.delta, st.lower, certificate[1]))
        st.pick = (rr, cc, weight, phase_lower, *certificate)
        st.delta = next_delta(st.delta, scale_eff, st.lower, N, epsilon, certificate[2])
