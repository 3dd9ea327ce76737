#!/usr/bin/env python
"""Seeded SPMD bugs — the end-to-end fixture for ``repro lint``.

Each function below contains exactly one classic SPMD mistake, and every
rule in the catalogue has at least one fixture here.  The linter must
report them all with file:line, and each bug also *reproduces at runtime*
(deadlock under the fabric's timeout backstop, divergent mates under
``--verify``, pickle failures) — the point of the linter is to catch them
before the run:

    python -m repro lint examples/buggy_spmd.py

Rule coverage map (kept in sync with ``tests/analysis/test_lint.py``):

=========  =====================================  ==============================
rule       fixture                                runtime symptom
=========  =====================================  ==============================
SPMD101    ``divergent_reduction``                rank 0 deadlocks in allreduce
SPMD101    ``divergent_via_helper``               same, reached through a helper
SPMD102    ``rank_bounded_barriers``              barrier-count mismatch hangs
SPMD401    ``unseeded_shuffle``                   ranks disagree silently
SPMD601    ``set_ordered_mates``                  mate vector depends on set order
SPMD602    ``clock_seeded_mates``                 divergent mates under --verify
SPMD603    ``set_ordered_sum``                    sums differ across ranks
SPMD701    ``global_mate_cache``                  writes vanish under processes
SPMD702    ``lambda_payload``                     pickle failure under processes
SPMD703    ``closure_launcher``                   job cannot start under processes
=========  =====================================  ==============================
"""

import time

import numpy as np


def divergent_reduction(comm):
    """BUG: only rank 0 enters the allreduce; every other rank skips it.

    Rank 0 blocks forever waiting for contributions that never come (the
    runtime converts that into DeadlockError; ``--verify`` mode reports the
    divergence precisely).
    """
    if comm.rank == 0:
        total = comm.allreduce(1)
    else:
        total = None
    return total


def unseeded_shuffle(comm, items):
    """BUG: the global NumPy RNG is unseeded, so every rank shuffles its
    replicated copy differently and the ranks silently disagree."""
    local = np.asarray(items).copy()
    np.random.shuffle(local)
    return comm.allgather(local)


# --------------------------------------------------------------------------
# interprocedural collective divergence (SPMD101 via call graph)


def _root_summary(comm, value):
    """Helper that hides a collective two frames away from the branch."""
    return _fold(comm, value)


def _fold(comm, value):
    return comm.allreduce(value)


def divergent_via_helper(comm):
    """BUG: the allreduce is reached only through ``_root_summary`` on the
    rank-0 branch — the classic helper-function blind spot.  The collective
    is two calls deep; non-root ranks never enter it."""
    if comm.rank == 0:
        return _root_summary(comm, 1)
    return None


def rank_bounded_barriers(comm):
    """BUG (SPMD102): each rank runs a different number of barriers, so the
    i-th barrier of rank 2 pairs with nothing on rank 0."""
    for _ in range(comm.rank):
        comm.barrier()
    return None


# --------------------------------------------------------------------------
# determinism hazards (SPMD6xx) — divergent mates under --verify


def set_ordered_mates(comm, edges):
    """BUG (SPMD601): iterating a set, with last-writer-wins stores — the
    resulting mate assignment depends on hash iteration order."""
    frontier = set(edges)
    mate = {}
    for u, v in frontier:
        mate[u] = v
    return comm.allgather(mate)


def clock_seeded_mates(comm, n):
    """BUG (SPMD602): mate assignment derived from a wall-clock read — each
    rank reads a different nanosecond, so the replicated 'computation'
    diverges across ranks (caught at runtime by ``--verify``)."""
    tiebreak = time.perf_counter_ns()
    mate = [(i + tiebreak) % n for i in range(n)]
    return comm.allgather(mate)


def set_ordered_sum(comm, weights):
    """BUG (SPMD603): float accumulation over a set — addition order differs
    across ranks, so the replicated totals disagree in the last ulps."""
    pool = set(weights)
    total = 0.0
    for w in pool:
        total += w
    return comm.allreduce(total)


# --------------------------------------------------------------------------
# backend-portability hazards (SPMD7xx) — the process-backend merge gate


_MATE_CACHE = {}


def global_mate_cache(comm, key, value):
    """BUG (SPMD701): stores into a module-level dict.  Under threads every
    rank sees the write (a data race that happens to work); under a process
    backend each rank mutates its own copy and the write vanishes."""
    _MATE_CACHE[key] = value
    return comm.barrier()


def lambda_payload(comm):
    """BUG (SPMD702): ships a lambda through bcast.  Thread ranks pass it by
    reference; a process backend must pickle it and fails at the boundary."""
    scorer = comm.bcast(lambda u, v: u ^ v, root=0)
    return scorer


def closure_launcher(spmd, coo):
    """BUG (SPMD703): hands a closure to the spmd() launcher.  Closures do
    not pickle, so the job cannot even start under a process backend."""

    def rank_main(comm):
        return coo if comm.rank == 0 else None

    return spmd(4, rank_main)
