"""Algorithm 2: the matrix-algebraic MS-BFS maximum-matching search.

This module is the paper's Figure 1 / Algorithm 2 written over the Table I
primitives with NumPy-global state.  It is *numerically identical* to the
distributed implementation (``mcm_dist``) — both compose the same seven
steps — and serves three roles:

1. the fast single-process reference implementation of the public API;
2. the execution engine of the performance simulator: the
   :class:`MsBfsHooks` callbacks expose, per superstep, exactly the
   quantities the α-β model needs (frontier sizes, edges touched, candidate
   destinations, prune volumes), measured from the real run;
3. the semantics oracle the SPMD implementation is tested against.

Each phase grows vertex-disjoint alternating BFS trees from all unmatched
columns, records at most one augmenting path per tree (keyed by root in the
dense ``path_c``), optionally prunes trees that already found a path
(Section VI-D studies the impact), and finally augments by all discovered
paths at once.  Phases repeat until one finds no augmenting path, which by
Berge's theorem certifies maximum cardinality.

The phase loop is also MCM-DIST's serial tail, which every rank runs on the
gathered graph once the hand-off fires.  There it takes the direction the
grid's blocks take: under ``direction="auto"`` an iteration pulls over the
matrix's row-major mirror wherever :func:`pull_is_cheaper` — the blocks'
rule, one copy for both — expects that to read fewer edges.  A pull finds
each row's minimum frontier column, the minParent winner, so the phases,
π and mates are the top-down ones.  :func:`ms_bfs_mcm` and the simulator
stay top-down.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from ..kernels import pull_candidates
from ..sparse.csc import CSC, ragged_gather
from ..sparse.semiring import SR_MIN_PARENT, Semiring, reduce_candidates
from ..sparse.spvec import NULL, VertexFrontier
from .augment import AugmentStats, augment_auto


def _explode_rows(a: CSC, cols: np.ndarray) -> np.ndarray:
    """All row indices adjacent to ``cols`` (with multiplicity)."""
    rows, _ = ragged_gather(a.indptr, a.indices, cols)
    return rows


class MsBfsHooks:
    """Instrumentation callbacks; the default implementation is a no-op.

    The performance simulator subclasses this and converts each event into
    priced supersteps.  All array arguments are read-only views of live
    algorithm state — implementations must not mutate them.
    """

    def on_phase_start(self, fc_nnz: int) -> None:
        """A phase begins with ``fc_nnz`` unmatched columns on the frontier."""

    def on_spmv(self, fc: VertexFrontier, cand_rows: np.ndarray, cand_cols: np.ndarray, fr: VertexFrontier) -> None:
        """Step 1 done top-down: ``cand_*`` are the exploded edge endpoints
        (the fold traffic); ``fr`` the reduced row frontier (before Step 2's
        filter)."""

    def on_select_set(self, fr: VertexFrontier, ufr: VertexFrontier) -> None:
        """Steps 2-4 done: frontier filtered to matched (``fr``) and
        unmatched (``ufr``) row subsets."""

    def on_invert_paths(self, ufr: VertexFrontier) -> None:
        """Step 5: INVERT of the unmatched rows' roots — (row, root) pairs
        travel to the root owners (alltoall over all p ranks)."""

    def on_prune(self, fr: VertexFrontier, new_path_roots: np.ndarray, kept: int) -> None:
        """Step 6: PRUNE of ψ=fr.nnz against μ=len(new_path_roots)."""

    def on_next_frontier(self, fr: VertexFrontier, fc_cols: np.ndarray) -> None:
        """Step 7: INVERT through mates produced the next column frontier."""

    def on_iteration_end(self, iteration: int) -> None:
        """One level-synchronous iteration of the while loop finished."""

    def on_phase_end(self, paths_found: int, phase_iters: int) -> None:
        """A phase ended having discovered ``paths_found`` augmenting paths."""


@dataclass
class MatchingStats:
    """Execution statistics of one MCM run (useful in tests and benches)."""

    phases: int = 0
    iterations: int = 0
    #: the iterations that pulled (only MCM-DIST's serial tail pulls)
    bottomup_steps: int = 0
    edges_traversed: int = 0
    paths_per_phase: list[int] = field(default_factory=list)
    augment: AugmentStats = field(default_factory=AugmentStats)
    initial_cardinality: int = 0
    final_cardinality: int = 0

    @property
    def total_paths(self) -> int:
        return sum(self.paths_per_phase)


def pull_is_cheaper(
    td: int, nnz: int, degrees: "Callable[[], np.ndarray]", unseen: np.ndarray
) -> bool:
    """Step 1's direction under "auto" — MCM-DIST's per-block choice and its
    serial tail's: pull iff the pull's expected read E = Σ over the
    ``unseen`` rows of min(degree, nnz/td) is below ``td``, the frontier
    columns' edges a top-down explode reads.  An edge lands on a frontier
    column with probability td/nnz, so a row reads about nnz/td edges
    before its first hit, never more than its degree.  ``unseen`` marks
    rows with an edge only, so each adds at least 1 to E (td ≤ nnz): as
    many unseen rows as ``td`` settle it without E — and without
    ``degrees()``, the rows' degrees, which only E asks for, so a tail
    that never pulls never builds them.  Computed as
    Σ min(degree·td, nnz) < td², in integers."""
    return int(np.count_nonzero(unseen)) < td and (
        int(np.minimum(degrees()[unseen] * td, nnz).sum()) < td * td)


def advance_frontier(
    fr: VertexFrontier,
    mate_r: np.ndarray,
    pi_r: np.ndarray,
    path_c: np.ndarray,
    prune: bool,
    hooks: MsBfsHooks,
) -> tuple[VertexFrontier, VertexFrontier]:
    """Steps 2–7 of Algorithm 2: from Step 1's reduced row frontier ``fr``
    to the next column frontier.  Mutates ``pi_r`` (parents of the rows
    that join) and ``path_c`` (new augmenting-path ends).  Returns
    ``(joined, fc)``: the rows that joined the forest this level — after
    Step 2's filter, before Step 4's split — and the next column frontier.
    """
    # -- Step 2: keep unvisited rows (SELECT on π_r = -1)
    joined = fr.keep(pi_r[fr.idx] == NULL)
    # -- Step 3: record their parents (SET)
    pi_r[joined.idx] = joined.parent
    # -- Step 4: split into unmatched and matched rows (two SELECTs)
    unmatched = mate_r[joined.idx] == NULL
    ufr = joined.keep(unmatched)
    fr = joined.keep(~unmatched)
    hooks.on_select_set(fr, ufr)

    if ufr.nnz:
        # -- Step 5: store endpoints of new augmenting paths
        # INVERT(ROOT(uf_r)): roots become indices, rows become values;
        # first occurrence wins, and roots that found a path in an
        # earlier iteration (possible only with pruning off) keep the
        # earlier, shorter path.
        hooks.on_invert_paths(ufr)
        troots, first = np.unique(ufr.root, return_index=True)
        fresh = path_c[troots] == NULL
        path_c[troots[fresh]] = ufr.idx[first[fresh]]

        # -- Step 6: prune trees that discovered augmenting paths
        if prune and fr.nnz:
            keep = ~np.isin(fr.root, troots)
            hooks.on_prune(fr, troots, int(keep.sum()))
            fr = fr.keep(keep)

    # -- Step 7: next column frontier = mates of the matched rows, with
    # parents set to the mates themselves and roots carried over
    # (SET + INVERT in the paper's formulation).
    mates = mate_r[fr.idx]
    order = np.argsort(mates)
    fc = VertexFrontier(path_c.size, mates[order], mates[order], fr.root[order])
    hooks.on_next_frontier(fr, mates)
    return joined, fc


def run_phase(
    a: CSC,
    mate_r: np.ndarray,
    mate_c: np.ndarray,
    pi_r: np.ndarray,
    *,
    semiring: Semiring = SR_MIN_PARENT,
    rng: np.random.Generator | None = None,
    prune: bool = True,
    hooks: MsBfsHooks | None = None,
    stats: MatchingStats | None = None,
    direction: str = "topdown",
) -> np.ndarray:
    """One phase of Algorithm 2 (the repeat-until body, lines 3–25).

    Mutates ``pi_r`` (parents of rows visited this phase, NULL elsewhere)
    and returns the dense ``path_c``: ``path_c[j] = i`` records an
    augmenting path from unmatched column j to unmatched row i.

    Under ``direction="auto"`` (MCM-DIST's serial tail, minParent only)
    each iteration pulls wherever :func:`pull_is_cheaper` expects that to
    read fewer edges: every row with an edge not yet visited stops at its
    first frontier column in ``a``'s row-major mirror
    (:func:`~repro.kernels.pull_candidates` over the cached
    :meth:`~repro.sparse.csc.CSC.transpose`, built on the first pull) — its
    minimum, the top-down reduce's winner, so the phase is the top-down
    one.  A pulling iteration reports no ``on_spmv``.
    """
    hooks = hooks or MsBfsHooks()
    n2 = a.ncols
    path_c = np.full(n2, NULL, dtype=np.int64)

    # Initial column frontier: every unmatched column, parent = root = self.
    fc = VertexFrontier.roots_of_self(n2, np.flatnonzero(mate_c == NULL))
    hooks.on_phase_start(fc.nnz)
    # the rows with an edge not visited yet, what a pull reads
    unseen = None
    if direction == "auto":
        unseen = np.zeros(a.nrows, dtype=bool)
        unseen[a.indices] = True

    iteration = 0
    while fc.nnz:
        iteration += 1
        # -- Step 1: explore neighbors of the column frontier (one BFS step)
        pull = unseen is not None and pull_is_cheaper(
            a.spmv_count(fc), a.nnz, a.row_degrees, unseen)
        if pull:
            root_of = np.full(n2, NULL, dtype=np.int64)
            root_of[fc.idx] = fc.root
            mirror = a.transpose()
            ridx, rpar, rroot, read = pull_candidates(
                mirror.indptr, mirror.indices, np.flatnonzero(unseen), root_of, NULL)
            fr = VertexFrontier(a.nrows, ridx, rpar, rroot)
        else:
            cand_rows, cand_parents, cand_roots, _ = a.explode_frontier(fc)
            ridx, rpar, rroot = reduce_candidates(
                cand_rows, cand_parents, cand_roots, semiring, rng)
            fr = VertexFrontier(a.nrows, ridx, rpar, rroot)
            hooks.on_spmv(fc, cand_rows, cand_parents, fr)
            read = cand_rows.size
        if stats is not None:
            stats.edges_traversed += read
            stats.bottomup_steps += pull

        # -- Steps 2–7
        joined, fc = advance_frontier(fr, mate_r, pi_r, path_c, prune, hooks)
        if unseen is not None:
            unseen[joined.idx] = False
        hooks.on_iteration_end(iteration)
        if stats is not None:
            stats.iterations += 1

    hooks.on_phase_end(int((path_c != NULL).sum()), iteration)
    return path_c


def mcm_phase_loop(
    a: CSC,
    mate_r: np.ndarray,
    mate_c: np.ndarray,
    stats: MatchingStats,
    *,
    semiring: Semiring = SR_MIN_PARENT,
    rng: np.random.Generator | None = None,
    prune: bool = True,
    hooks: MsBfsHooks | None = None,
    augment_mode: str = "auto",
    direction: str = "topdown",
    on_phase=None,
) -> None:
    """Algorithm 2's repeat-until loop, in place: phases augment ``mate_r``
    / ``mate_c`` until one finds no path, counted into ``stats``.
    ``on_phase(n)``, when given, runs as the loop enters its n-th phase
    (MCM-DIST's serial tail passes its phase boundary there, and its
    ``direction``: see :func:`run_phase`)."""
    pi_r = np.empty(a.nrows, dtype=np.int64)
    while True:
        pi_r.fill(NULL)
        stats.phases += 1
        if on_phase is not None:
            on_phase(stats.phases)
        path_c = run_phase(
            a, mate_r, mate_c, pi_r,
            semiring=semiring, rng=rng, prune=prune, hooks=hooks, stats=stats,
            direction=direction,
        )
        k = int((path_c != NULL).sum())
        stats.paths_per_phase.append(k)
        if k == 0:
            return
        augment_auto(
            path_c, pi_r, mate_r, mate_c,
            mode=augment_mode, nprocs=1, stats=stats.augment,
        )


def ms_bfs_mcm(
    a: CSC,
    mate_r: np.ndarray | None = None,
    mate_c: np.ndarray | None = None,
    *,
    semiring: Semiring = SR_MIN_PARENT,
    rng: np.random.Generator | None = None,
    prune: bool = True,
    hooks: MsBfsHooks | None = None,
    augment_mode: str = "auto",
) -> tuple[np.ndarray, np.ndarray, MatchingStats]:
    """MCM-DIST's algorithm (Algorithm 2) on global arrays.

    Parameters
    ----------
    a:
        The bipartite graph as an n₁×n₂ pattern matrix.
    mate_r, mate_c:
        Initial matching (e.g. from a maximal-matching initializer); fresh
        unmatched vectors when omitted.  Updated copies are returned.
    semiring:
        Candidate tie-break; ``SR_MIN_PARENT`` reproduces the paper's
        running example, ``SR_RAND_ROOT`` balances tree sizes.
    prune:
        Step 6 on/off — the knob of the paper's Fig. 8 study.
    augment_mode:
        "level" (Algorithm 3), "path" (Algorithm 4) or "auto" (the paper's
        k < 2p² switch at p = 1: this engine is one process).

    Returns ``(mate_r, mate_c, stats)``.
    """
    mate_r = np.full(a.nrows, NULL, dtype=np.int64) if mate_r is None else np.asarray(mate_r, np.int64).copy()
    mate_c = np.full(a.ncols, NULL, dtype=np.int64) if mate_c is None else np.asarray(mate_c, np.int64).copy()
    stats = MatchingStats(initial_cardinality=int((mate_r != NULL).sum()))
    mcm_phase_loop(
        a, mate_r, mate_c, stats, semiring=semiring, rng=rng, prune=prune, hooks=hooks,
        augment_mode=augment_mode,
    )
    stats.final_cardinality = int((mate_r != NULL).sum())
    return mate_r, mate_c, stats
