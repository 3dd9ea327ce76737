"""α-β cost formulas for the collectives used by the matching algorithms.

Each function returns model seconds for ONE process's participation in the
collective (the bulk-synchronous step time, i.e. the slowest participant),
given the number of processes ``p``, the relevant word counts, and the
(α, β) pair the caller obtained from
:meth:`repro.perfmodel.machine.MachineSpec.comm_params`.

The formulas of the algorithms :class:`repro.runtime.comm.Communicator`
runs are checked round for round against the schedules it walks
(:mod:`repro.runtime.schedules`, ``tests/runtime/test_schedules.py``); the
rest (ring, Bruck, reduce+bcast) price the MPI the paper ran on.  The
costs assumed in Section IV-B of the paper:

* SpMV "expand" = :func:`allgather_ring` over a grid column (√P processes);
* SpMV "fold" = :func:`alltoallv_pairwise` over a grid row (√P processes);
* INVERT = :func:`alltoallv_pairwise` over all P processes — its αP latency
  is the scaling bottleneck the paper highlights;
* PRUNE = :func:`allgather_ring` of the discovered augmenting-path roots;
* level-parallel augmentation = 3 all-to-alls per INVERT, 2 INVERTs/step:
  the paper's h(6αp + 4βk/p) cost is assembled in matching.augment;
* path-parallel augmentation = :func:`rma_op` per Get/Put/Fetch-and-op.
"""

from __future__ import annotations


def _log2ceil(p: int) -> int:
    """⌈log₂p⌉ rounds of a doubling schedule (0 for a singleton)."""
    return (p - 1).bit_length() if p > 1 else 0


def degraded_params(alpha: float, beta: float, links, group) -> tuple[float, float]:
    """(α, β) a collective over ``group`` sees under link degradation.

    ``links`` is a :class:`repro.perfmodel.links.LinkModel`; ``group`` the
    participating ranks.  A bulk-synchronous collective finishes with its
    slowest participant, so the worst degraded edge inside the group
    inflates the whole collective's (α, β) — the pessimistic-but-honest
    reading of asymmetric topology damage.
    """
    fa, fb = links.worst_factors(group)
    return alpha * fa, beta * fb


def rma_op(alpha: float, beta: float, words: float = 1.0) -> float:
    """One one-sided Get/Put/Fetch-and-op of ``words`` words.

    The paper charges 3(α+β) for the three RMA calls of one path-parallel
    augmentation step; each call here is α + βw with w = 1.
    """
    return alpha + beta * words


def barrier_dissemination(p: int, alpha: float) -> float:
    """Dissemination barrier: ⌈log₂p⌉ latency-only rounds."""
    return alpha * _log2ceil(p)


def bcast_binomial(p: int, alpha: float, beta: float, words: float) -> float:
    """Binomial-tree broadcast of a ``words``-word payload."""
    return _log2ceil(p) * (alpha + beta * words)


def reduce_binomial(p: int, alpha: float, beta: float, words: float) -> float:
    """Binomial-tree reduction of ``words``-word payloads."""
    return _log2ceil(p) * (alpha + beta * words)


def allreduce_recursive_doubling(p: int, alpha: float, beta: float, words: float) -> float:
    """Recursive-doubling allreduce: log₂⌊p⌋ exchange rounds, plus one
    fold-in/fold-out round pair when p is not a power of two."""
    if p <= 1:
        return 0.0
    pof2 = 1 << (p.bit_length() - 1)
    rounds = pof2.bit_length() - 1
    if p != pof2:
        rounds += 2
    return rounds * (alpha + beta * words)


def allreduce_reduce_bcast(p: int, alpha: float, beta: float, words: float) -> float:
    """Reduce + broadcast (binomial trees back to back)."""
    return reduce_binomial(p, alpha, beta, words) + bcast_binomial(p, alpha, beta, words)


def allreduce(p: int, alpha: float, beta: float, words: float, algorithm: str = "reduce_bcast") -> float:
    """Dispatch on the modeled allreduce implementation."""
    if algorithm == "doubling":
        return allreduce_recursive_doubling(p, alpha, beta, words)
    if algorithm == "reduce_bcast":
        return allreduce_reduce_bcast(p, alpha, beta, words)
    raise ValueError(f"unknown allreduce algorithm {algorithm!r}")


def gather_direct(p: int, alpha: float, beta: float, total_words: float) -> float:
    """Direct gather at the root: p-1 receives, ``total_words`` words in."""
    if p <= 1:
        return 0.0
    return alpha * (p - 1) + beta * total_words


def allgather_ring(p: int, alpha: float, beta: float, total_words: float) -> float:
    """Ring allgather: p-1 steps; every process forwards (p-1)/p of the
    total payload.  This is the "ring algorithm" cost αp + βμ the paper
    cites for PRUNE's root gather."""
    if p <= 1:
        return 0.0
    return alpha * (p - 1) + beta * total_words * (p - 1) / p


def alltoallv_pairwise(p: int, alpha: float, beta: float, max_send_words: float) -> float:
    """Pairwise-exchange personalized all-to-all.

    ``max_send_words`` is the largest per-process total send volume; the
    pairwise schedule takes p-1 rounds of α plus the bandwidth term of the
    busiest process.  This is the worst-case cost the paper's Section IV-B
    analysis assumes (the αp INVERT latency).
    """
    if p <= 1:
        return 0.0
    return alpha * (p - 1) + beta * max_send_words


def alltoallv_bruck(p: int, alpha: float, beta: float, max_send_words: float) -> float:
    """Bruck-algorithm personalized all-to-all for small messages.

    ⌈log₂p⌉ rounds; each round forwards roughly half the aggregate payload,
    so the bandwidth term picks up a log₂p/2 factor while latency drops from
    p-1 to log₂p.  Production MPIs (including Cray's) switch to this regime
    for the small per-destination messages sparse INVERTs generate — it is
    what lets the paper's measured runs keep scaling past the point where
    the αp worst-case bound would have frozen them.
    """
    if p <= 1:
        return 0.0
    rounds = _log2ceil(p)
    # Per-destination metadata (the counts exchange) is folded into the
    # latency term: it is size-independent and behaves like α, not like
    # payload bandwidth.
    return alpha * rounds + beta * max_send_words * rounds / 2


def allgather_recursive_doubling(p: int, alpha: float, beta: float, total_words: float) -> float:
    """Recursive-doubling allgather: log₂p rounds, same βW total volume as
    the ring but logarithmic latency (the small-message regime)."""
    if p <= 1:
        return 0.0
    return alpha * _log2ceil(p) + beta * total_words * (p - 1) / p


def alltoallv(p: int, alpha: float, beta: float, max_send_words: float, algorithm: str = "bruck") -> float:
    """Dispatch on the modeled all-to-all implementation."""
    if algorithm == "bruck":
        return alltoallv_bruck(p, alpha, beta, max_send_words)
    if algorithm == "pairwise":
        return alltoallv_pairwise(p, alpha, beta, max_send_words)
    raise ValueError(f"unknown alltoall algorithm {algorithm!r}")


def allgather(p: int, alpha: float, beta: float, total_words: float, algorithm: str = "doubling") -> float:
    """Dispatch on the modeled allgather implementation."""
    if algorithm == "doubling":
        return allgather_recursive_doubling(p, alpha, beta, total_words)
    if algorithm == "ring":
        return allgather_ring(p, alpha, beta, total_words)
    raise ValueError(f"unknown allgather algorithm {algorithm!r}")


def spmv_expand(pr: int, alpha: float, beta: float, frontier_words: float) -> float:
    """The "expand" phase of 2D SpMV: allgather of the frontier slice along a
    processor column (√P participants, CombBLAS style)."""
    return allgather_ring(pr, alpha, beta, frontier_words)


def spmv_fold(pc: int, alpha: float, beta: float, max_send_words: float) -> float:
    """The "fold" phase of 2D SpMV: personalized all-to-all of partial
    products along a processor row."""
    return alltoallv_pairwise(pc, alpha, beta, max_send_words)


def auction_round(
    pr: int,
    pc: int,
    alpha: float,
    beta: float,
    partial_words: float,
    bid_words: float,
    notify_words: float,
) -> float:
    """One synchronized bidding round of MWM-DIST on a pr × pc grid.

    The round's wire shape (see :mod:`repro.matching.mwm_dist`) is three
    allgathers on the schedule the runtime selects (dissemination — the
    ⌈log₂p⌉-step :func:`allgather_recursive_doubling` cost):

    1. bid — per-block (best, second) partials down a grid COLUMN (``pr``
       participants, ``partial_words`` total);
    2. resolve — bids along a grid ROW (``pc`` participants, ``bid_words``
       total);
    3. notify — winners, evictees and the fresh-accept count down the
       column again (``notify_words`` total).

    The latency term, ``alpha * (2·⌈log₂ pr⌉ + ⌈log₂ pc⌉)``, is pinned
    against a real run's ledger in ``tests/matching/test_mwm_round_shape.py``.
    """
    return (
        allgather_recursive_doubling(pr, alpha, beta, partial_words)
        + allgather_recursive_doubling(pc, alpha, beta, bid_words)
        + allgather_recursive_doubling(pr, alpha, beta, notify_words)
    )


def auction_certificate(
    pr: int,
    pc: int,
    alpha: float,
    beta: float,
    partial_words: float,
    share_words: float,
) -> float:
    """The dual certificate MWM-DIST takes at the end of every ε-phase.

    Its own leg is one bid over ALL bidders at the final prices: per-block
    (best, second) partials down a grid COLUMN (``pr`` participants,
    ``partial_words`` total).  The price and profit shares that D sums
    (``share_words`` total) ride the extraction's one grid allgather, with
    both matchings' pairs, so they add bandwidth and no latency step:
    ``⌈log₂ pr⌉`` steps per phase,
    pinned against a real run's ledger in
    ``tests/matching/test_mwm_round_shape.py``.
    """
    p = pr * pc
    shares = beta * share_words * (p - 1) / p if p > 1 else 0.0
    return allgather_recursive_doubling(pr, alpha, beta, partial_words) + shares


def msbfs_iteration(
    pr: int,
    pc: int,
    alpha: float,
    beta: float,
    fold_words: float,
    hop_words: float,
) -> float:
    """One BFS iteration of MCM-DIST on a pr × pc grid, as the ENGINE runs it.

    The iteration's wire shape (see :mod:`repro.matching.mcm_dist`) is two
    exchanges on the schedules the runtime selects (pairwise all-to-all,
    dissemination allgather), none of them over the whole grid:

    1. fold — partial SpMV winners along a grid ROW to each row's home, the
       rank sitting in its mate's column block (``pc`` participants;
       ``fold_words`` is the busiest rank's send volume, free rows' copies
       to every peer included);
    2. column hop — the next-frontier (column, root) pairs the homes
       produced and the grid row's (root, row) path ends down a grid COLUMN
       (``pr`` participants; ``hop_words`` is one rank's share, so a
       balanced column block holds ``pr · hop_words``).

    The latency term, ``alpha * ((pc-1) + ⌈log₂ pr⌉)``, is pinned against
    a real run's ledger in ``tests/perfmodel/test_machine_and_costs.py``.
    The PAPER's schedule for the same iteration (two grid-wide INVERT
    all-to-alls, a grid-wide PRUNE allgather) is what
    :mod:`repro.simulate.costsim` keeps pricing for the Fig. 4–9
    reproductions.
    """
    return (
        alltoallv_pairwise(pc, alpha, beta, fold_words)
        + allgather_recursive_doubling(pr, alpha, beta, pr * hop_words)
    )
