"""Serial auction twin: the distributed engine's bit-exact oracle.

Runs the identical ε-scaled synchronized auction as
:mod:`repro.matching.mwm_dist`, but on the global doubled graph in one
process — every round calls the SAME shared kernels (:func:`top2_cols`,
:func:`compute_bids`, :func:`resolve_bids`) against the same round-start
prices, and every phase ends in the same extraction and dual certificate
(:func:`better_matching`, :func:`certify`), so the mate vectors, final
prices and certified ratio it produces are what the
distributed engine must reproduce bit for bit on every grid shape,
backend, and aggregation setting.  Deviations are engine bugs by
definition (routing, partial combination, price propagation), never
float noise.
"""

from __future__ import annotations

import numpy as np

from ...sparse.spvec import NULL
from ..auction import (
    MAX_ROUNDS,
    better_matching,
    build_csc,
    certify,
    compute_bids,
    dedup_edges,
    double_for_assignment,
    extract_matchings,
    lookup_pair_weights,
    next_delta,
    resolve_bids,
    top2_cols,
)


def auction_mwm_serial(
    n1: int,
    n2: int,
    rows: np.ndarray,
    cols: np.ndarray,
    weights: np.ndarray,
    *,
    epsilon: float = 0.05,
    cardinality_bias: float = 0.0,
) -> tuple[np.ndarray, np.ndarray, dict]:
    """ε-scaled serial auction; returns ``(mate_r, mate_c, info)``.

    ``mate_r``/``mate_c`` describe a matching of the ORIGINAL graph with
    ``weight >= (1 - epsilon) * OPT`` for positive weights, proved by the
    last phase's dual certificate (:func:`~repro.matching.auction.certify`:
    the extracted matching's effective weight is ``>= (1 - ε)·D/2`` with
    ``D >= 2·OPT_eff``; the ladder stops at the first phase that proves it).
    ``info`` carries ``weight`` (original, unbiased), ``rounds``,
    ``phases``, ``bids``, the final doubled ``prices``, the ``schedule`` of
    increments, the ``lower_bounds`` L the ladder was fed and the
    certificate ``ratios`` L/(D/2) after each phase, the last phase's
    ``dual_bound`` D and ``certified_ratio``, and the doubled ``mate_item``
    vector (for ε-CS assertions).  ``cardinality_bias``
    shifts real edges by ``bias * scale`` against the zero-weight dummies,
    trading weight for cardinality (at bias >= 1 any real edge beats going
    unmatched).
    """
    rows, cols, weights = dedup_edges(rows, cols, weights)
    mate_r = np.full(n1, NULL, dtype=np.int64)
    mate_c = np.full(n2, NULL, dtype=np.int64)
    scale = float(weights.max()) if weights.size else 0.0
    info = {
        "weight": 0.0, "cardinality": 0, "rounds": 0, "phases": 0, "bids": 0,
        "scale": scale, "epsilon": epsilon, "dual_bound": 0.0, "certified_ratio": 1.0,
    }
    if scale <= 0.0 or n1 == 0 or n2 == 0:
        return mate_r, mate_c, info  # OPT is the empty matching

    bias_add = cardinality_bias * scale
    scale_eff = scale + bias_add
    N, dr, dc, dweff, dworig = double_for_assignment(n1, n2, rows, cols, weights, bias_add)
    cp, ir, weff, _worig = build_csc(N, N, dr, dc, dweff, dworig)
    cp0, ir0, w0 = build_csc(n1, n2, rows, cols, weights)
    sec_floor = -(scale_eff + 1.0)

    price = np.zeros(N)
    mate_item = np.full(N, NULL, dtype=np.int64)
    mate_bidder = np.full(N, NULL, dtype=np.int64)
    rounds = bids_placed = 0
    schedule: list[float] = []
    lower_bounds: list[float] = []
    ratios: list[float] = []
    rr = cc = np.empty(0, np.int64)
    weight = lower = dual = ratio = 0.0
    delta = next_delta(None, scale_eff, lower, N, epsilon)
    while delta is not None:
        schedule.append(delta)
        # each ε-phase restarts the assignment; prices persist (sound for
        # perfect assignment: both sides' price sums cancel in the bound)
        mate_item.fill(NULL)
        mate_bidder.fill(NULL)
        while True:
            bidders = np.flatnonzero(mate_bidder == NULL)
            if bidders.size == 0:
                break  # perfect assignment reached: phase done
            if rounds >= MAX_ROUNDS:
                raise RuntimeError(f"auction exceeded {MAX_ROUNDS} rounds")
            kcols, best, brow, bw, second = top2_cols(cp, ir, weff, bidders, price)
            bids = compute_bids(best, bw, second, delta, sec_floor)
            ridx, wbid, winner = resolve_bids(brow, bids, kcols)
            prev = mate_item[ridx]
            mate_bidder[prev[prev != NULL]] = NULL
            mate_item[ridx] = winner
            mate_bidder[winner] = ridx
            price[ridx] = wbid
            rounds += 1
            bids_placed += int(bidders.size)
        # every phase's assignment is extracted and certified: a certified
        # phase is the last, and an uncertified one's weight may raise L
        (r1, c1), (r2, c2) = extract_matchings(n1, n2, mate_item)
        rr, cc, weight, phase_lower = better_matching(
            (r1, c1, lookup_pair_weights(n1, cp0, ir0, w0, r1, c1)),
            (r2, c2, lookup_pair_weights(n1, cp0, ir0, w0, r2, c2)),
            bias_add,
        )
        profits = top2_cols(cp, ir, weff, np.arange(N), price)[1]
        dual, ratio, certified = certify(price, profits, phase_lower, epsilon)
        ratios.append(ratio)
        lower = max(lower, phase_lower)
        lower_bounds.append(lower)
        delta = next_delta(delta, scale_eff, lower, N, epsilon, certified)

    mate_r[rr] = cc
    mate_c[cc] = rr
    info.update(
        weight=weight, cardinality=int(rr.size), rounds=rounds,
        phases=len(schedule), bids=bids_placed, prices=price,
        schedule=schedule, lower_bounds=lower_bounds, ratios=ratios,
        dual_bound=dual, certified_ratio=ratio, mate_item=mate_item,
        scale_eff=scale_eff, sec_floor=sec_floor,
    )
    return mate_r, mate_c, info
