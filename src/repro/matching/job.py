"""The job shell both SPMD engines enter and leave through.

MCM-DIST (:mod:`~repro.matching.mcm_dist`) and MWM-DIST
(:mod:`~repro.matching.mwm_dist`) are each a phase loop plus an extraction;
everything around the loop is the same job on the same substrate and lives
here once:

* :class:`DistStats` — the counters a job reports, and their price
  (:meth:`DistStats.price`);
* :func:`phase_boundary` — progress marker, per-phase ledger and
  phase-boundary crash point;
* :class:`Job` — what a job carries across a restart: the steps it has
  paid, which :func:`tail_is_cheaper` — the priced rule that hands a job's
  thin end to a serial solve replicated on every rank — is asked with, and
  its counters; and the one snapshot protocol (:meth:`Job.snapshot`: one
  grid allgather, then :func:`save_checkpoint`, the single-writer,
  barrier-closed write);
* :func:`snapshot_ledger` / :func:`merge_by_alg` — the per-rank ledger
  snapshot and its communication-free driver-side fold;
* :func:`launch` — the only driver: launch on a pr × pc grid, sum every
  rank's counters (no collective carries them), and, when the caller
  allows restarts, shrink-and-restart recovery from checkpoints.
"""

from __future__ import annotations

import contextlib
import tempfile
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

from ..distmat.grid import ProcGrid
from ..perfmodel.machine import EDISON, Price
from ..runtime import (
    RECOVERABLE_ERRORS,
    Checkpoint,
    CheckpointStore,
    DistTrace,
    FaultInjector,
    FaultPlan,
    FileCheckpointStore,
    RankKilledError,
    resolve_backend,
    resolve_timeout,
    spmd,
)
from ..runtime.trace import tspan


@dataclass
class DistStats:
    """Per-run counters: each rank's own, summed by :func:`launch` where
    they are per-rank, rank 0's where they are replicated."""

    phases: int = 0
    iterations: int = 0
    augment_level_calls: int = 0
    initial_cardinality: int = 0
    final_cardinality: int = 0
    #: Step-1 direction tally: block-iterations, summed over the ranks
    #: (``topdown_steps + bottomup_steps == iterations × p``; a tail
    #: iteration counts on every rank, in the direction it took)
    topdown_steps: int = 0
    bottomup_steps: int = 0
    #: edges the chosen directions examined across all Step-1 SpMVs (an
    #: auction's: every top-2 scan, bids and certificates), summed over the
    #: ranks: each block's own, then the serial tail's on every rank that
    #: ran it — so ``edges_examined − (p−1)·tail_edges`` is the top-down
    #: (the serial twin's) count whichever phase (round) a grid hands off
    #: at, when no block and no tail iteration pulls (``direction="topdown"``)
    edges_examined: int = 0
    #: edges MCM-DIST's greedy initializer read through its lookahead
    #: cursor, summed over the ranks (not in ``edges_examined``)
    init_edges: int = 0
    #: the replicated serial tail (:func:`tail_is_cheaper`): the phases it
    #: ran (MWM-DIST's count the one it took over mid-way), MCM-DIST's BFS
    #: iterations and MWM-DIST's auction rounds in it, and the edges ONE
    #: copy of it read (zero for a job that never handed off)
    tail_phases: int = 0
    tail_iterations: int = 0
    tail_rounds: int = 0
    tail_edges: int = 0
    #: grid-wide words on the column / row communicators over the whole
    #: job (every communicator's: ``ledger()[1]``)
    expand_words: int = 0
    fold_words: int = 0
    #: grid-wide per-algorithm collective counters, summed over all ranks and
    #: the grid/row/column communicators: ``{"op:alg": {"calls", "messages",
    #: "words", "steps"}}`` (see :attr:`repro.runtime.comm.CommStats.by_alg`)
    comm_by_alg: "dict[str, dict[str, int]] | None" = None
    #: the logical/physical ledger split of the aggregation engine, summed
    #: over all ranks and communicators: ``comm_messages`` counts every
    #: message of the logical (round-based) schedule — the number BENCH
    #: gates and the trace cross-check price — while ``frames`` counts the
    #: mailbox deposits/ring writes that actually crossed the fabric
    #: (``frames == comm_messages`` when no communicator has ≥ 3 ranks)
    comm_messages: int = 0
    frames: int = 0
    frame_words: int = 0
    #: recovery counters, filled by :func:`launch`: fabric rebuilds after
    #: failures, completed phases re-executed because they post-dated the
    #: restart checkpoint, and 8-byte words written to the checkpoint store
    #: across all incarnations of the job (all zero for a run that was
    #: given no store and no restarts — it writes no checkpoint)
    restarts: int = 0
    phases_replayed: int = 0
    checkpoint_words: int = 0
    #: phase -> grid-wide cumulative ``(steps, words)`` of ``comm_by_alg``
    #: as the successful attempt entered that phase's boundary — the
    #: per-phase ledger the scenario suite prices.  Failed attempts are not
    #: in it: their counters depend on which victims the abort unwinds first
    phase_ledger: "dict[int, tuple[int, int]]" = field(default_factory=dict)
    #: (resume_phase, death_phase) per failed attempt that was restarted
    restart_spans: "tuple[tuple[int, int], ...]" = ()
    #: filled by :func:`launch` when the job ran with ``verify=True``
    verify_summary: "dict[str, int] | None" = None
    #: weighted-auction counters (``run_mwm_dist``; zero for cardinality
    #: jobs): synchronized bidding rounds across all ε-phases, bids placed
    #: (one per active bidder per round) and item price increases accepted
    #: (counted once per item, not once per replica: each rank reports its
    #: share, :func:`launch` sums them)
    auction_rounds: int = 0
    bids_placed: int = 0
    price_updates: int = 0
    #: weighted objective of the reported matching (original weights), its
    #: weight scale (max edge weight) and the ε the schedule was built for
    matching_weight: float = 0.0
    weight_scale: float = 0.0
    epsilon: float = 0.0
    #: the last ε-phase's dual certificate (:func:`repro.matching.auction.
    #: certify`): D = Σ prices + Σ bidder profits >= 2·OPT_eff, and
    #: L / (D/2) for the extracted matching's effective weight L (>= 1 - ε)
    dual_bound: float = 0.0
    certified_ratio: float = 0.0

    # The merged span timeline (:class:`repro.runtime.trace.DistTrace`) when
    # the job ran with ``trace=...``.  Deliberately a plain class attribute,
    # NOT a dataclass field: ``dataclasses.asdict(stats)`` (the CLI's
    # ``--stats-json``) must not serialize it, and a disabled tracer must add
    # zero entries to DistStats.
    trace = None
    # Final doubled-graph item prices of a weighted auction job — a class
    # attribute for the same asdict/JSON reason as ``trace``; tests read it
    # to assert ε-complementary slackness.
    auction_prices = None

    def ledger(self) -> "tuple[int, int]":
        """Grid-wide ``(steps, words)`` of :attr:`comm_by_alg`."""
        by_alg = (self.comm_by_alg or {}).values()
        return sum(d["steps"] for d in by_alg), sum(d["words"] for d in by_alg)

    def price(self, p: int) -> Price:
        """This job on a ``p``-rank grid priced per rank at EDISON's
        constants (:meth:`~repro.perfmodel.machine.MachineSpec.price`): its
        ledger and every edge read (the initializer's too)."""
        return EDISON.price(p, *self.ledger(), self.edges_examined + self.init_edges)


# ---------------------------------------------------------------------------
# per-rank pieces (called from inside the SPMD program)
# ---------------------------------------------------------------------------

def ledger_totals(grid: ProcGrid) -> tuple[int, int]:
    """This rank's cumulative ``(steps, words)`` over its three
    communicators."""
    tables = [c.stats.by_alg for c in (grid.colcomm, grid.rowcomm, grid.comm)]
    return tuple(sum(d[k] for t in tables for d in t.values()) for k in ("steps", "words"))


#: the per-rank counters :func:`launch` sums over the ranks (besides the
#: ``comm_by_alg`` tables and the phase ledger)
SUMMED = ("comm_messages", "frames", "frame_words", "expand_words", "fold_words",
          "edges_examined", "init_edges", "price_updates", "topdown_steps", "bottomup_steps")

#: the counters a snapshot carries, so that a resumed job reports the
#: fault-free job's: one in :data:`SUMMED` is the grid's sum in the
#: snapshot and comes back on rank 0 only (:func:`launch` adds every rank's
#: since the resume), any other is replicated and comes back on every rank
CARRIED = ("iterations", "augment_level_calls", "initial_cardinality", "auction_rounds",
           "bids_placed", "edges_examined", "init_edges", "bottomup_steps", "price_updates")


class Job:
    """What a rank's job carries across a restart, and its one snapshot
    protocol (:meth:`snapshot`).

    :meth:`steps` is the latency steps on this rank's ledger since the job
    began: the rent :func:`tail_is_cheaper` is asked with.  A snapshot's own
    collectives stay out of it, and every snapshot carries it: an attempt
    resumed from ``resume`` starts its ledger at zero and books the set-up
    again, so it counts on from the snapshot's steps, from the end of its
    set-up (the first attempt counted the set-up once).  The snapshot also
    carries the :data:`CARRIED` counters of ``stats``, which a resume
    restores.  A restarted job and a job given a store thus ask the rule
    with the plain run's numbers and report its counters.  ``stamp`` rides
    every snapshot as extra ``aux`` arrays."""

    def __init__(self, grid: ProcGrid, stats: DistStats, store: "CheckpointStore | None" = None,
                 resume: "Checkpoint | None" = None,
                 stamp: "dict[str, np.ndarray] | None" = None) -> None:
        self.grid, self.stats, self.store, self.stamp = grid, stats, store, stamp or {}
        held = (resume.aux or {}) if resume is not None else {}
        self.offset = int(held["steps"]) - ledger_totals(grid)[0] if "steps" in held else 0
        for name, value in zip(CARRIED, held.get("counts", ())):
            if grid.comm.rank == 0 or name not in SUMMED:
                setattr(stats, name, int(value))

    def steps(self) -> int:
        return ledger_totals(self.grid)[0] + self.offset

    def counts(self) -> np.ndarray:
        """This rank's :data:`CARRIED` counters."""
        return np.array([getattr(self.stats, name) for name in CARRIED], np.int64)

    def snapshot(self, phase: int, lo: int, mate: np.ndarray,
                 aligned: "dict[str, np.ndarray] | None" = None, *,
                 counts: "list[np.ndarray] | None" = None, **fixed: np.ndarray) -> None:
        """Snapshot the job after a completed ``phase`` when it has a store
        (a no-op without one): one grid allgather of every rank's slice of
        the mate vector, starting at global index ``lo`` — the slices tile
        the vector, and a rank holding a replica of another's contributes
        an empty one — with the ``aligned`` arrays sliced alike and its
        :meth:`counts`, then :func:`save_checkpoint`.  ``fixed`` arrays are
        replicated state, saved as this rank holds them.  Given ``counts``
        — every rank's :meth:`counts`, riding a grid allgather the caller
        makes anyway — ``mate`` is whole on every rank, and the snapshot is
        the write alone."""
        if self.store is None:
            return
        grid, aligned = self.grid, aligned or {}
        with tspan(grid.comm, "checkpoint", cat="phase", phase=phase):
            before = self.steps()
            if counts is None:
                pieces = grid.comm.allgather((lo, mate, *aligned.values(), self.counts()))
                counts = [piece[-1] for piece in pieces]
                ordered = sorted(pieces, key=lambda piece: piece[0])
                mate, *arrays = (np.concatenate([piece[k] for piece in ordered])
                                 for k in range(1, len(aligned) + 2))
                aligned = dict(zip(aligned, arrays))
            ck = Checkpoint(phase, mate, {
                **self.stamp, **aligned, **fixed,
                "counts": np.where(np.isin(CARRIED, SUMMED), sum(counts), self.counts()),
                "steps": np.array(before),
            })
            save_checkpoint(grid, self.store, ck)
            self.offset -= self.steps() - before


def phase_boundary(
    grid: ProcGrid, stats: DistStats, phase_no: int, *, serial: bool = False
) -> None:
    """Publish phase progress, record this rank's :func:`ledger_totals`
    into ``stats.phase_ledger``, and give the fault plan its phase-boundary
    crash point (a no-op without an armed injector).

    A ``serial`` phase is one the rank runs without communicating
    (MCM-DIST's serial tail), so only a rank the plan kills there publishes
    it: a survivor runs on until the job's next collective, and how far it
    gets before the abort reaches it is timing, which the death phase a
    restart is accounted from must not be."""
    fabric = grid.comm.fabric
    if not serial:
        fabric.note_progress("phase", phase_no)
    stats.phase_ledger[phase_no] = ledger_totals(grid)
    if fabric.faults is not None:
        try:
            fabric.faults.on_phase(grid.comm.global_rank, phase_no)
        except RankKilledError:
            fabric.note_progress("phase", phase_no)  # the phase it died in
            raise


def tail_is_cheaper(steps: int, p: int, words: int, nnz: int, saved: float = 0.0) -> bool:
    """The tail hand-off, priced at EDISON's constants
    (:meth:`~repro.perfmodel.machine.MachineSpec.price`, per rank): finish
    the job on a serial solve replicated on all ``p`` ranks iff the rent
    the job has paid — ``steps``, every latency step on a rank's ledger
    since the job began (:meth:`Job.steps`) — costs at least one read of
    all ``nnz`` edges and, with ``saved`` (the price of what handing off
    skips at once), more than the purchase: one grid allgather of
    ``words`` words (recursive doubling: ⌈log₂ p⌉ steps, ``words``·(p−1)/p
    words a rank) plus that read.  This is ski rental — buy once the rent
    paid reaches the price — and it bounds the run against the best
    hand-off in hindsight, no hand-off included: a job that would have
    stopped sooner paid at most the price in rent, and one that runs on
    has paid the price before it buys, so either way it pays about twice
    the best at most.  The bound needs a serial phase no dearer than the
    grid's phase it replaces.  The serial phase pays no latency but reads
    edges, so MCM-DIST's tail makes the grid blocks' per-iteration
    direction choice (:func:`~repro.matching.msbfs.run_phase` under
    "auto"): a top-down tail reads every frontier edge where the pulling
    grid stopped at each row's first hit, and so made a hand-off on
    er(10) 2x2 price above never handing off.  The rule reads replicated
    numbers only and has no knob.
    MCM-DIST asks once per phase, after its BFS, with that phase's
    augmentation priced in; MWM-DIST after every auction round (its thin
    tail is rounds, not phases).  MWM-DIST's tail splits each phase-end's
    read p ways, so the γ·``nnz`` term overprices its purchase; it is left
    as is on purpose, since re-pricing it moves hand-off rounds and needs
    the hand-off sweep.  No engine makes a one-sided op, so the
    ledger holds every step a job pays; a 1x1 grid's ledger holds no step
    (not even its splits'), so it never fires there."""
    cost = EDISON.price(1, (p - 1).bit_length(), words * (p - 1) / p, nnz)
    spent = EDISON.price(1, steps).total
    return spent >= cost.gamma_s and spent + saved > cost.total


def save_checkpoint(grid: ProcGrid, store: CheckpointStore, ck: Checkpoint) -> None:
    """Write one snapshot every rank has assembled (:meth:`Job.snapshot`).

    Only rank 0 writes to the store, so file-backed stores see one writer.
    The closing barrier orders the write against every peer's progress: no
    rank can pass this checkpoint (and reach the next crashable phase
    boundary) until rank 0 has durably saved it, which is what makes the
    restart trajectory of a seeded fault plan deterministic rather than
    dependent on how far ahead the assembly let individual ranks run.
    """
    if grid.comm.rank == 0:
        store.save(ck)
    grid.comm.barrier()


def _add_by_alg(into: dict, table: "dict | None") -> None:
    """``into[key][field] += table[key][field]`` — the one per-algorithm
    adder behind the rank-side snapshot and the driver-side merge."""
    for key, counters in (table or {}).items():
        agg = into.setdefault(key, {"calls": 0, "messages": 0, "words": 0, "steps": 0})
        for name, v in counters.items():
            agg[name] += v


def snapshot_ledger(grid: ProcGrid, stats: DistStats) -> None:
    """This rank's ledgers summed over the job's three communicators
    (grid, row, column): the per-algorithm table, the logical message count,
    the physical frames and the column / row words.  The job's LAST act —
    no message leaves the rank after this snapshot, so the per-rank tables
    account for every word of the whole job (which is what lets the span
    tracer cross-check them exactly).  :func:`launch` sums the rank-local
    values with ZERO extra communication: the executor already returns
    every rank's."""
    ledgers = [c.stats for c in (grid.colcomm, grid.rowcomm, grid.comm)]
    stats.expand_words, stats.fold_words = (ledger.words_sent for ledger in ledgers[:2])
    stats.comm_by_alg = {}
    for ledger in ledgers:
        _add_by_alg(stats.comm_by_alg, ledger.by_alg)
    stats.comm_messages = sum(ledger.messages_sent for ledger in ledgers)
    stats.frames = sum(ledger.frames for ledger in ledgers)
    stats.frame_words = sum(ledger.frame_words for ledger in ledgers)


# ---------------------------------------------------------------------------
# the driver
# ---------------------------------------------------------------------------

def merge_by_alg(rank_values) -> dict[str, dict[str, int]]:
    """Driver-side fold of per-rank ``(mate_r, mate_c, stats)`` tuples'
    local ``comm_by_alg`` tables into the grid-wide table (pure local
    computation on the already-gathered SPMD return values)."""
    merged: dict[str, dict[str, int]] = {}
    for _, _, st in rank_values:
        _add_by_alg(merged, st.comm_by_alg)
    return merged


def _rank_main(comm, engine: Callable[..., Any], job_args: tuple, pr: int, pc: int,
               **kwargs: Any):
    """Every rank's entry point: ``engine`` with the job's data on rank 0
    only (a module-level function, so a process backend can pickle it)."""
    data = job_args if comm.rank == 0 else (None,) * len(job_args)
    return engine(comm, *data, pr, pc, **kwargs)


def launch(
    engine: Callable[..., Any],
    job_args: tuple,
    pr: int,
    pc: int,
    *,
    faults: "FaultPlan | FaultInjector | str | None" = None,
    checkpoint_store: "CheckpointStore | None" = None,
    max_restarts: int = 0,
    timeout: "float | None" = None,
    verify: bool = False,
    trace: "bool | str" = False,
    backend: "str | None" = None,
    **alg_kwargs: Any,
):
    """Run ``engine(comm, *job_args, pr, pc, **alg_kwargs)`` on a pr × pc
    grid — ``job_args`` on rank 0, ``None`` for each on every other rank —
    and return rank 0's ``(mate_r, mate_c, stats)`` with every
    per-rank counter summed over the ranks (the ledgers, edge reads, price
    updates, block-iteration tally) — the one
    launch-and-merge body under
    :func:`~repro.matching.mcm_dist.run_mcm_dist` and
    :func:`~repro.matching.mwm_dist.run_mwm_dist`.

    ``engine`` must accept ``checkpoint_store`` / ``resume`` and, given a
    store, snapshot every phase boundary through :meth:`Job.snapshot`.  A
    store exists iff the caller passes one or allows restarts
    (``max_restarts > 0``, which creates one the ranks of the resolved
    backend can reach: in memory for threads, a ``FileCheckpointStore`` in a
    temporary directory removed on exit for processes); without a store
    the engine receives ``checkpoint_store=None, resume=None`` and the run
    carries no checkpoint traffic at all.

    When an attempt fails with one of
    :data:`~repro.runtime.executor.RECOVERABLE_ERRORS` and restarts remain,
    the fabric is rebuilt from scratch — ULFM-style shrink-and-restart with
    a fresh set of simulated processes — and the job resumes from the
    store's latest checkpoint.  A ``FaultPlan`` (or its string form)
    becomes one injector per attempt, built with the grid shape; crash
    events that already fired are disarmed on restart (a process only dies
    once), transient/delay faults re-arm.  A ready-made ``FaultInjector``
    carries one attempt's counters, so it is accepted for a single attempt
    only.  Everything else — resume-point lookup, restart-span and replay
    accounting, trace concatenation (one ``restart`` span per seam), the
    surviving attempt's phase ledger — is algorithm-agnostic and lives here.
    """
    if isinstance(faults, str):
        faults = FaultPlan.parse(faults)
    if isinstance(faults, FaultInjector) and max_restarts > 0:
        raise ValueError(
            "a FaultInjector carries one attempt's counters: pass the "
            "FaultPlan to run with max_restarts > 0"
        )
    timeout = resolve_timeout(timeout, default=120.0)
    resolved_backend = resolve_backend(backend, verify=verify)
    store = checkpoint_store
    if store is not None and resolved_backend == "process" and not isinstance(
        store, FileCheckpointStore
    ):
        raise ValueError(
            f"backend='process' cannot checkpoint into {store!r}: forked ranks "
            "cannot write into the parent's in-memory store; pass a "
            "FileCheckpointStore"
        )
    with contextlib.ExitStack() as scratch:
        if store is None and max_restarts > 0:
            if resolved_backend == "process":
                # forked ranks need a store they can reach: a throwaway
                # directory that lives exactly as long as this job
                store = FileCheckpointStore(scratch.enter_context(
                    tempfile.TemporaryDirectory(prefix="repro-ckpt-")))
            else:
                store = CheckpointStore()

        disarmed: set = set()
        restarts = 0
        phases_replayed = 0
        #: (resume_phase, death_phase) per failed attempt.  Both are
        #: deterministic — the checkpoint write is collective and completes
        #: before the next boundary's crash point, and the first victim notes
        #: its boundary before dying — so the scenario driver can price the
        #: failed attempt's lost work from a crash-free run's phase ledger
        #: without touching the crashed attempt's scheduler-racy counters.
        restart_spans: list = []
        job_trace: "DistTrace | None" = None

        def merge_attempt(attempt_trace: "DistTrace | None") -> None:
            nonlocal job_trace
            if attempt_trace is None:
                return
            if job_trace is None:
                job_trace = attempt_trace
            else:
                job_trace = job_trace.concat(attempt_trace, "restart", attempt=restarts)

        while True:
            injector = faults
            if isinstance(faults, FaultPlan):
                injector = FaultInjector(faults, pr * pc, disarmed=disarmed, grid=(pr, pc))
            resume = None
            if store is not None:
                store.refresh_counters()
                resume = store.latest()
            resume_phase = resume.phase if resume is not None else 0
            try:
                result = spmd(
                    pr * pc, _rank_main, engine, job_args, pr, pc,
                    timeout=timeout, verify=verify, faults=injector,
                    trace=trace, backend=resolved_backend,
                    checkpoint_store=store,
                    resume=resume,
                    **alg_kwargs,
                )
                merge_attempt(result.trace)
                break
            except RECOVERABLE_ERRORS as exc:
                merge_attempt(getattr(exc, "spmd_trace", None))
                restarts += 1
                if restarts > max_restarts:
                    raise
                if injector is not None:
                    disarmed |= injector.fired_tokens()
                reached = getattr(exc, "spmd_progress", {}).get("phase", 0)
                restart_spans.append((resume_phase, reached))
                store.refresh_counters()
                latest = store.latest()
                restart_from = latest.phase if latest is not None else 0
                # phases the failed attempt had completed (it entered phase
                # ``reached`` but died inside it) past the checkpoint the next
                # attempt resumes from must run again
                phases_replayed += max(0, reached - 1 - restart_from)

        mate_r, mate_c, stats = result[0]
        stats.comm_by_alg = merge_by_alg(result.values)
        for name in SUMMED:
            setattr(stats, name, sum(getattr(st, name) for _, _, st in result.values))
        ledger: dict = {}
        for _, _, st in result.values:
            for phase, (steps, words) in st.phase_ledger.items():
                s0, w0 = ledger.get(phase, (0, 0))
                ledger[phase] = (s0 + steps, w0 + words)
        stats.phase_ledger = dict(sorted(ledger.items()))
        stats.verify_summary = result.verify_summary
        stats.restarts = restarts
        stats.phases_replayed = phases_replayed
        stats.restart_spans = tuple(restart_spans)
        if store is not None:
            store.refresh_counters()
            stats.checkpoint_words = store.words_written
        stats.trace = job_trace
        return mate_r, mate_c, stats
