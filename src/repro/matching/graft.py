"""MS-BFS-Graft: tree grafting across phases (the paper's future work).

Plain MS-BFS (Algorithm 2) throws its alternating forest away after every
phase and rebuilds from scratch — most of those traversals are redundant,
which is why the authors name "implementing the tree grafting technique
together with the bottom-up BFS in distributed memory" as future work,
citing their shared-memory MS-BFS-Graft [7].  This module implements the
technique on the same matrix-algebra substrate:

* the forest (row parents ``π_r``, row roots, column roots) persists across
  phases;
* after augmenting, only the trees that yielded augmenting paths are
  invalidated — their vertices become *renewable* (reset to unvisited);
  the remaining *active* trees keep their entire explored structure;
* the next phase is seeded by a **graft** step — a bottom-up sweep in which
  unvisited/renewable rows scan their adjacency for any column of an active
  tree and attach themselves to it (inheriting its root) — after which the
  level-synchronous iterations continue exactly as in Algorithm 2;
* when a grafted phase discovers nothing, one conventional from-scratch
  phase confirms maximality (Berge), so correctness never rests on the
  grafting bookkeeping.

With deterministic semirings the result is a maximum matching identical in
cardinality to every other engine; the savings show up as a lower
total-traversed-edge count (asserted in tests, reported by the ablation
bench).
"""

from __future__ import annotations

import numpy as np

from ..sparse.csc import CSC, ragged_gather
from ..sparse.semiring import SR_MIN_PARENT, Semiring, reduce_candidates
from ..sparse.spvec import NULL, VertexFrontier
from .augment import augment_auto
from .msbfs import MatchingStats, MsBfsHooks, advance_frontier

#: When more than this fraction of the visited forest is invalidated by a
#: phase's augmentations, the next phase rebuilds from scratch instead of
#: grafting — the [7] heuristic that keeps grafting from paying repeated
#: whole-graph sweep costs on inputs whose trees mostly die each phase.
REBUILD_THRESHOLD = 0.5


def _graft_candidates(
    a: CSC, pi_r: np.ndarray, root_c: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Bottom-up graft sweep: every unvisited row examines its adjacency
    for columns belonging to active trees (``root_c != NULL``).

    Returns the candidate (rows, cols) edge arrays.
    """
    at = a.transpose()
    unvisited = np.flatnonzero(pi_r == NULL)
    cand_cols, counts = ragged_gather(at.indptr, at.indices, unvisited)
    cand_rows = np.repeat(unvisited, counts)
    hit = root_c[cand_cols] != NULL
    return cand_rows[hit], cand_cols[hit]


def ms_bfs_graft(
    a: CSC,
    mate_r: np.ndarray | None = None,
    mate_c: np.ndarray | None = None,
    *,
    semiring: Semiring = SR_MIN_PARENT,
    rng: np.random.Generator | None = None,
    prune: bool = True,
    augment_mode: str = "auto",
) -> tuple[np.ndarray, np.ndarray, MatchingStats]:
    """Maximum cardinality matching with tree grafting.

    Same contract as :func:`repro.matching.msbfs.ms_bfs_mcm`; the returned
    stats additionally reflect the reduced edge traffic.
    """
    n1, n2 = a.nrows, a.ncols
    mate_r = np.full(n1, NULL, np.int64) if mate_r is None else np.asarray(mate_r, np.int64).copy()
    mate_c = np.full(n2, NULL, np.int64) if mate_c is None else np.asarray(mate_c, np.int64).copy()
    stats = MatchingStats(initial_cardinality=int((mate_r != NULL).sum()))

    pi_r = np.full(n1, NULL, dtype=np.int64)
    root_r = np.full(n1, NULL, dtype=np.int64)
    root_c = np.full(n2, NULL, dtype=np.int64)

    fresh = True          # first phase (and confirmation phases) start clean
    hooks = MsBfsHooks()  # the shared steps report to hooks; graft has none

    while True:
        stats.phases += 1
        path_c = np.full(n2, NULL, dtype=np.int64)

        if fresh:
            pi_r.fill(NULL)
            root_r.fill(NULL)
            root_c.fill(NULL)
            seeds = np.flatnonzero(mate_c == NULL)
            root_c[seeds] = seeds
            fc = VertexFrontier.roots_of_self(n2, seeds)
            fr_pre = None
        else:
            # GRAFT: unvisited rows attach to active trees (bottom-up)
            g_rows, g_cols = _graft_candidates(a, pi_r, root_c)
            stats.edges_traversed += g_rows.size
            ridx, rpar, rroot = reduce_candidates(
                g_rows, g_cols, root_c[g_cols], semiring, rng
            )
            fr_pre = VertexFrontier(n1, ridx, rpar, rroot)
            fc = VertexFrontier.empty(n2)

        # ---- level-synchronous iterations (Algorithm 2 steps 1-7, with the
        # frontier optionally pre-seeded by the graft sweep) ----------------
        while True:
            if fr_pre is not None:
                fr = fr_pre
                fr_pre = None
            elif fc.nnz:
                stats.iterations += 1
                cand_rows, cand_parents, cand_roots, _ = a.explode_frontier(fc)
                stats.edges_traversed += cand_rows.size
                ridx, rpar, rroot = reduce_candidates(
                    cand_rows, cand_parents, cand_roots, semiring, rng
                )
                fr = VertexFrontier(n1, ridx, rpar, rroot)
            else:
                break

            # Steps 2-7 (shared with plain MS-BFS); the forest additionally
            # remembers the root of every row and column that joined
            joined, fc = advance_frontier(fr, mate_r, pi_r, path_c, prune, hooks)
            root_r[joined.idx] = joined.root
            root_c[fc.idx] = fc.root

        # ---- phase end -----------------------------------------------------
        k = int((path_c != NULL).sum())
        stats.paths_per_phase.append(k)
        if k == 0:
            if fresh:
                break  # a from-scratch phase found nothing: maximum certified
            # stale forest found nothing: confirm with one fresh phase
            fresh = True
            continue

        augment_auto(
            path_c, pi_r, mate_r, mate_c,
            mode=augment_mode, nprocs=1, stats=stats.augment,
        )
        # invalidate the augmented trees: their members become renewable
        aug_roots = np.flatnonzero(path_c != NULL)
        visited_before = int((root_r != NULL).sum())
        dead_rows = np.isin(root_r, aug_roots)
        pi_r[dead_rows] = NULL
        root_r[dead_rows] = NULL
        root_c[np.isin(root_c, aug_roots)] = NULL
        # graft only when a useful share of the forest survived; otherwise a
        # from-scratch phase is cheaper than sweeping all renewables
        died = int(dead_rows.sum())
        fresh = visited_before == 0 or died > REBUILD_THRESHOLD * visited_before

    stats.final_cardinality = int((mate_r != NULL).sum())
    return mate_r, mate_c, stats
