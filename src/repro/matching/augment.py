"""Augmentation: Algorithm 3 (level-parallel) and Algorithm 4 (path-parallel).

Both algorithms flip the matched/unmatched status of every edge along each
discovered augmenting path (the symmetric difference M ⊕ P).  They compute
identical matchings; they differ in *how the work is scheduled* and hence in
communication cost:

* **level-parallel** (Algorithm 3): all k paths advance in lockstep from
  their unmatched-row ends toward their roots; each of the h/2 iterations
  performs two INVERTs and two SETs, costing ``h(6αp + 4βk/p)`` — latency
  h·6αp regardless of k, so tiny path sets at high process counts drown in
  synchronization;
* **path-parallel** (Algorithm 4): each process walks its own k/p paths
  asynchronously with one-sided Get/Put/Fetch-and-op, costing
  ``(k/p)·3h(α+β)`` — latency proportional to the local path count instead
  of p.

Comparing the latency terms gives the paper's switch: path-parallel wins
when **k < 2p²**, which :func:`choose_augment_mode` implements and the
matching driver applies per phase.

The functions below operate on global dense vectors (the single-process and
simulator engines); the true SPMD versions live in
``mcm_dist.augment_level_spmd`` and ``mcm_dist.augment_path_spmd_rma``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..sparse.spvec import NULL


@dataclass
class AugmentStats:
    """Measured augmentation characteristics, consumed by the cost model."""

    calls: int = 0
    level_calls: int = 0
    path_calls: int = 0
    total_paths: int = 0
    #: per call: number of lockstep iterations (h/2 of the longest path)
    level_iterations: list[int] = field(default_factory=list)
    #: per call: per-path pair-step counts (path-parallel RMA walk lengths)
    path_steps: list[np.ndarray] = field(default_factory=list)
    #: per call: k values actually augmented
    k_per_call: list[int] = field(default_factory=list)
    #: per call: live path count at each lockstep iteration
    active_per_level: list[list[int]] = field(default_factory=list)


def _collect_paths(path_c: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(roots, end_rows) of the recorded vertex-disjoint augmenting paths."""
    roots = np.flatnonzero(path_c != NULL)
    return roots, path_c[roots]


def augment_level_parallel(
    path_c: np.ndarray,
    pi_r: np.ndarray,
    mate_r: np.ndarray,
    mate_c: np.ndarray,
    stats: AugmentStats | None = None,
) -> int:
    """Algorithm 3: lockstep augmentation of all paths.

    Starting from each path's unmatched row end, every iteration matches one
    (row, parent-column) pair on every live path and steps to the column's
    previous mate — vectorized over the whole path set, exactly the
    INVERT/SET composition of the paper's pseudocode.  Returns k.
    """
    roots, rows = _collect_paths(path_c)
    k = rows.size
    if stats is not None:
        stats.calls += 1
        stats.level_calls += 1
        stats.total_paths += k
        stats.k_per_call.append(int(k))
        stats.active_per_level.append([])
    if k == 0:
        if stats is not None:
            stats.level_iterations.append(0)
        return 0

    active_rows = rows
    iters = 0
    while active_rows.size:
        iters += 1
        if stats is not None:
            stats.active_per_level[-1].append(int(active_rows.size))
        cols = pi_r[active_rows]                # INVERT + SET(π_r): parent columns
        prev_rows = mate_c[cols]                # SET(mate_c): columns' old mates
        mate_r[active_rows] = cols              # flip: match (row, parent)
        mate_c[cols] = active_rows
        active_rows = prev_rows[prev_rows != NULL]  # paths ending here drop out
    if stats is not None:
        stats.level_iterations.append(iters)
    return int(k)


def augment_path_parallel(
    path_c: np.ndarray,
    pi_r: np.ndarray,
    mate_r: np.ndarray,
    mate_c: np.ndarray,
    stats: AugmentStats | None = None,
) -> int:
    """Algorithm 4's result computed path-at-a-time (the asynchronous
    schedule), recording each path's walk length for the RMA cost model.

    Augmenting paths are vertex-disjoint, so walking them in any order or
    interleaving yields the same matching as the lockstep version — which is
    precisely why the paper can switch freely between the two.  Returns k.
    """
    roots, rows = _collect_paths(path_c)
    k = rows.size
    steps = np.zeros(k, dtype=np.int64)
    for p in range(k):
        r = int(rows[p])
        while r != NULL:
            c = int(pi_r[r])            # MPI_GET(π_r)
            prev = int(mate_c[c])       # MPI_FETCH_AND_OP(mate_c): read old, put new
            mate_c[c] = r
            mate_r[r] = c               # MPI_PUT(mate_r)
            steps[p] += 1
            r = prev
    if stats is not None:
        stats.calls += 1
        stats.path_calls += 1
        stats.total_paths += k
        stats.k_per_call.append(int(k))
        stats.path_steps.append(steps)
    return int(k)


def choose_augment_mode(k: int, nprocs: int) -> str:
    """The paper's automatic switch: path-parallel iff k < 2p²."""
    return "path" if k < 2 * nprocs * nprocs else "level"


def augment_auto(
    path_c: np.ndarray,
    pi_r: np.ndarray,
    mate_r: np.ndarray,
    mate_c: np.ndarray,
    *,
    mode: str = "auto",
    nprocs: int = 1,
    stats: AugmentStats | None = None,
) -> int:
    """Dispatch to an augmentation variant ("level", "path" or "auto")."""
    if mode == "auto":
        k = int((path_c != NULL).sum())
        mode = choose_augment_mode(k, nprocs)
    if mode == "level":
        return augment_level_parallel(path_c, pi_r, mate_r, mate_c, stats)
    if mode == "path":
        return augment_path_parallel(path_c, pi_r, mate_r, mate_c, stats)
    raise ValueError(f"unknown augment mode {mode!r} (level/path/auto)")
