"""User-facing matching API.

These are the functions a downstream user (e.g. a sparse direct solver's
preprocessing step) calls; everything else in the package is machinery
behind them.

>>> from repro import maximum_matching
>>> from repro.graphs import rmat
>>> g = rmat.g500(scale=10, seed=1)
>>> mate_r, mate_c, stats = maximum_matching(g)
>>> stats.final_cardinality > 0
True
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from ..sparse.coo import COO
from ..sparse.csc import CSC
from ..sparse.semiring import SR_MIN_PARENT, Semiring
from ..sparse.spvec import NULL
from .maximal import dynamic_mindegree, greedy_maximal, karp_sipser
from .msbfs import MatchingStats, ms_bfs_mcm

_INITIALIZERS: dict[str, Callable] = {
    "greedy": greedy_maximal,
    "karp-sipser": karp_sipser,
    "mindegree": dynamic_mindegree,
}


def _as_csc(graph: "COO | CSC") -> CSC:
    if isinstance(graph, CSC):
        return graph
    if isinstance(graph, COO):
        return CSC.from_coo(graph)
    raise TypeError(f"expected COO or CSC, got {type(graph).__name__}")


def maximal_matching(
    graph: "COO | CSC",
    method: str = "mindegree",
    seed: int = 0,
) -> tuple[np.ndarray, np.ndarray]:
    """Maximal (not maximum) matching — the initializer stage.

    ``method`` is one of ``"greedy"``, ``"karp-sipser"``, ``"mindegree"``
    (the paper's default, see Section VI-A).  Returns ``(mate_r, mate_c)``
    with -1 for unmatched vertices.
    """
    a = _as_csc(graph)
    try:
        fn = _INITIALIZERS[method]
    except KeyError:
        raise ValueError(
            f"unknown maximal matching method {method!r}; "
            f"choose from {sorted(_INITIALIZERS)}"
        ) from None
    return fn(a, np.random.default_rng(seed))


def maximum_matching(
    graph: "COO | CSC",
    *,
    init: str | None = "mindegree",
    semiring: Semiring = SR_MIN_PARENT,
    prune: bool = True,
    seed: int = 0,
    augment_mode: str = "auto",
) -> tuple[np.ndarray, np.ndarray, MatchingStats]:
    """Maximum cardinality matching of a bipartite graph (Algorithm 2).

    Parameters
    ----------
    graph:
        The bipartite graph as an n₁×n₂ pattern matrix (COO or CSC).
    init:
        Maximal-matching initializer name, or ``None`` to start from the
        empty matching.
    semiring:
        BFS tie-break semiring (see :mod:`repro.sparse.semiring`).
    prune:
        Enable Step 6 tree pruning (Fig. 8's knob; keep on).
    seed:
        Seed for the initializer and any randomized semiring.
    augment_mode:
        ``"level"``, ``"path"`` or ``"auto"``.

    Step 1 is always the paper's top-down SpMV; the direction-optimized
    pull (the paper's stated future work) lives in the distributed engine,
    :func:`~repro.matching.mcm_dist.run_mcm_dist` (``direction="auto"``).

    Returns ``(mate_r, mate_c, stats)``; the matching is provably maximum
    (terminates only when a phase finds no augmenting path).
    """
    a = _as_csc(graph)
    if init is None:
        mate_r = mate_c = None
    else:
        mate_r, mate_c = maximal_matching(a, init, seed)
    rng = np.random.default_rng(seed + 1)
    return ms_bfs_mcm(
        a, mate_r, mate_c,
        semiring=semiring, rng=rng, prune=prune, augment_mode=augment_mode,
    )


def maximum_weight_matching(
    graph: COO,
    weights: np.ndarray,
    *,
    epsilon: float = 0.05,
    cardinality_bias: float = 0.0,
    method: str = "auction",
) -> tuple[np.ndarray, np.ndarray, float]:
    """Maximum WEIGHT matching of an edge-weighted bipartite graph.

    ``graph`` must be a :class:`~repro.sparse.coo.COO` with ``weights``
    parallel to its edge arrays (CSC is rejected because its edge order
    differs and would silently misalign the weights).  ``method`` picks the
    engine: ``"auction"`` — the ε-scaled serial auction
    (:func:`~repro.matching.reference.auction_twin.auction_mwm_serial`,
    weight ≥ ``(1 - epsilon) * OPT``, the serial twin of the distributed
    :func:`~repro.matching.mwm_dist.run_mwm_dist`) — or ``"exact"`` — the
    O(n³) Hungarian oracle
    (:func:`~repro.matching.reference.hungarian.hungarian_mwm`).
    ``cardinality_bias`` trades weight for cardinality (auction only;
    ``>= 1`` prefers any real edge over leaving vertices unmatched).
    Returns ``(mate_r, mate_c, weight)`` over positive-weight edges.
    """
    if not isinstance(graph, COO):
        raise TypeError(
            f"maximum_weight_matching needs a COO (weights are parallel to "
            f"its edge arrays), got {type(graph).__name__}"
        )
    weights = np.asarray(weights, np.float64)
    if weights.shape != graph.rows.shape:
        raise ValueError("one weight per edge required")
    if method == "auction":
        from .reference.auction_twin import auction_mwm_serial

        mate_r, mate_c, info = auction_mwm_serial(
            graph.nrows, graph.ncols, graph.rows, graph.cols, weights,
            epsilon=epsilon, cardinality_bias=cardinality_bias,
        )
        return mate_r, mate_c, float(info["weight"])
    if method == "exact":
        from .reference.hungarian import hungarian_mwm

        return hungarian_mwm(
            graph.nrows, graph.ncols, graph.rows, graph.cols, weights
        )
    raise ValueError(f"unknown method {method!r}; choose from ['auction', 'exact']")


def matching_cardinality(mate: np.ndarray) -> int:
    """Convenience: number of matched pairs described by a mate vector."""
    return int((np.asarray(mate) != NULL).sum())
