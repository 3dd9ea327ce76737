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
float noise.  Its loop (:func:`~repro.matching.auction.auction_phase_loop`)
is the one MWM-DIST's serial tail resumes on every rank, so a hand-off
changes no result.
"""

from __future__ import annotations

import numpy as np

from ...sparse.spvec import NULL
from ..auction import AuctionState, auction_phase_loop, dedup_edges, next_delta


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
    ``phases``, ``bids``, ``price_updates``, ``edges`` (the edges the top-2
    scans read), the final doubled ``prices``, the ``schedule`` of
    increments, the ``lower_bounds`` L the ladder was fed and the
    certificate ``ratios`` L/(D/2) after each phase, the last phase's
    ``dual_bound`` D and ``certified_ratio``, and the doubled ``mate_item``
    vector (for ε-CS assertions).  ``cardinality_bias``
    shifts real edges by ``bias * scale`` against the zero-weight dummies,
    trading weight for cardinality (at bias >= 1 any real edge beats going
    unmatched).  The loop itself is :func:`~repro.matching.auction.
    auction_phase_loop`, run from the first round.
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
    N = n1 + n2
    st = AuctionState(np.zeros(N), np.full(N, NULL, dtype=np.int64),
                      next_delta(None, scale_eff, 0.0, N, epsilon))
    auction_phase_loop(n1, n2, rows, cols, weights, st, bias_add=bias_add,
                       scale_eff=scale_eff, epsilon=epsilon)
    rr, cc, weight, _, dual, ratio = st.pick[:6]
    mate_r[rr] = cc
    mate_c[cc] = rr
    schedule, lower_bounds, ratios = (list(col) for col in zip(*st.ladder))
    info.update(
        weight=weight, cardinality=int(rr.size), rounds=st.rounds,
        phases=st.phases, bids=st.bids, price_updates=st.price_updates,
        edges=st.edges, prices=st.prices, schedule=schedule,
        lower_bounds=lower_bounds, ratios=ratios, dual_bound=dual,
        certified_ratio=ratio, mate_item=st.mate_item, scale_eff=scale_eff,
    )
    return mate_r, mate_c, info
