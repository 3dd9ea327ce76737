"""Deterministic fault injection for the simulated runtime.

Real deployments of MCM-DIST run on thousands of cores where rank failures,
lossy links and adaptive-routing reorderings are the normal case.  This
module gives the simulated fabric the same adversary, *reproducibly*: a
:class:`FaultPlan` is a pure description of which faults to inject and a
:class:`FaultInjector` turns it into per-operation decisions that depend
only on ``(seed, rank, category, counter)`` — never on wall-clock time or
thread interleaving — so the exact same fault sequence replays bit-for-bit
on every run with the same ``(seed, plan)``.

Fault categories
----------------

* **rank crashes** — a rank dies at its Nth collective entry, Nth send, Nth
  one-sided RMA op, or at an MCM phase boundary (:class:`RankKilledError`);
  the executor aborts the job and survivors unwind with ``CommAbort``.
  A crash may target a *group* instead of a single rank: every rank of a
  seeded grid row, grid column, or random clique dies at the same logical
  event — the correlated node-failure shape (one cabinet, one switch).
* **transient send / RMA failures** — an operation fails with
  :class:`TransientCommError` with probability ``p`` per attempt; the
  communicator retries with capped exponential backoff
  (:class:`RetryPolicy`), so these are invisible to the algorithm apart
  from retry counters on ``CommStats``.
* **message delays / reorderings** — a delivered envelope is inserted at a
  seeded position in the destination queue *behind* later traffic, but
  never past an envelope of its own ``(source, tag)`` stream, preserving
  MPI's non-overtaking guarantee.  Only wildcard-receive observation order
  can change — a legal interconnect reordering.

The injector only executes faults; it prices nothing.  Adversity that
changes *how long* a run takes but not what it does — stragglers, degraded
links, disrupted supersteps — is a term of the α-β model, applied by
:mod:`repro.matching.scenarios` to the engine's own per-phase ledger.

Plan grammar (``repro spmd --chaos SEED --chaos-plan PLAN``)
------------------------------------------------------------

Semicolon-separated clauses::

    crash:rank=R,at=KIND:N   R = rank index or 'any' (seeded choice);
                             KIND = collective | send | rma | phase;
                             N = 1-based occurrence index, or 'every'
                             (phase crashes only: one crash per boundary)
    crash:group=G,at=KIND:N  correlated crash: G = row | col | clique:K;
                             a seeded grid row / column / K-rank clique all
                             die at the same logical event
    transient:p=P            send AND rma ops fail with probability P
    transient:send=P,rma=Q   per-category probabilities
    delay:p=P                deliveries are reordered with probability P

Example: ``crash:group=row,at=phase:2;transient:p=0.01;delay:p=0.2``.

Malformed plans raise :class:`~repro.runtime.errors.FaultPlanError` naming
the offending clause or token.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

from .errors import FaultPlanError, RankKilledError, TransientCommError

_MASK = (1 << 64) - 1

# category salts for the decision hash (arbitrary distinct constants)
_CAT_SEND_FAIL = 0x51
_CAT_RMA_FAIL = 0x52
_CAT_DELAY = 0x53
_CAT_DELAY_SLOT = 0x54
_CAT_VICTIM = 0x55
_CAT_GROUP = 0x58
_CAT_CLIQUE = 0x59

#: operation kinds a crash can be scheduled at
CRASH_KINDS = ("collective", "send", "rma", "phase")

#: correlated-crash group shapes (clique takes a :K size suffix)
CRASH_GROUPS = ("row", "col", "clique")


def _mix(*parts: int) -> int:
    """Order-sensitive splitmix64 hash of a tuple of ints.

    Stateless and thread-free: the decision for (seed, category, rank, n)
    is the same no matter which thread asks first, which is what makes the
    injected fault sequence independent of scheduler interleaving.
    """
    x = 0x9E3779B97F4A7C15
    for p in parts:
        x = (x ^ ((p + 0x9E3779B97F4A7C15) & _MASK)) & _MASK
        x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
        x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK
        x ^= x >> 31
    return x


def _unit(*parts: int) -> float:
    """Uniform float in [0, 1) derived from the hash."""
    return _mix(*parts) / 2.0**64


@dataclass(frozen=True)
class RetryPolicy:
    """Capped exponential backoff for transient communication failures."""

    max_retries: int = 8
    base_delay: float = 0.0002
    max_delay: float = 0.02

    def delay(self, attempt: int) -> float:
        """Sleep before retry ``attempt`` (1-based)."""
        return min(self.max_delay, self.base_delay * (2 ** (attempt - 1)))


@dataclass(frozen=True)
class CrashSpec:
    """One scheduled rank (or rank-group) death.

    ``rank`` is a fixed rank index or ``None`` for a seeded choice;
    ``at`` is one of :data:`CRASH_KINDS`; ``n`` is the 1-based occurrence
    (``None`` = every occurrence, legal only for ``at='phase'``).
    ``group`` makes the crash correlated: ``'row'`` / ``'col'`` kill a
    seeded grid row or column, ``'clique:K'`` a seeded K-rank clique; the
    whole group dies at the same logical event.  ``rank`` must be ``None``
    when ``group`` is set.
    """

    rank: int | None
    at: str
    n: int | None
    group: str | None = None

    def __post_init__(self) -> None:
        if self.at not in CRASH_KINDS:
            raise ValueError(f"crash kind must be one of {CRASH_KINDS}, got {self.at!r}")
        if self.n is None and self.at != "phase":
            raise ValueError("n='every' is only supported for at='phase' crashes")
        if self.n is not None and self.n < 1:
            raise ValueError(f"crash occurrence index must be >= 1, got {self.n}")
        if self.group is not None:
            if self.rank is not None:
                raise ValueError("crash spec cannot set both rank and group")
            base, _, size = self.group.partition(":")
            if base not in CRASH_GROUPS:
                raise ValueError(
                    f"crash group must be one of {CRASH_GROUPS}, got {self.group!r}"
                )
            if base == "clique":
                if not size.isdigit() or int(size) < 1:
                    raise ValueError(
                        f"clique group needs a positive size, got {self.group!r}"
                    )
            elif size:
                raise ValueError(f"group {base!r} takes no size, got {self.group!r}")

    def clique_size(self) -> int:
        """Size K of a ``clique:K`` group (1 for anything else)."""
        if self.group and self.group.startswith("clique"):
            return int(self.group.partition(":")[2])
        return 1


def _plan_int(clause: str, key: str, raw: str) -> int:
    try:
        return int(raw)
    except ValueError:
        raise FaultPlanError(
            f"fault clause {clause!r}: {key}={raw!r} is not an integer"
        ) from None


def _plan_float(clause: str, key: str, raw: str) -> float:
    try:
        return float(raw)
    except ValueError:
        raise FaultPlanError(
            f"fault clause {clause!r}: {key}={raw!r} is not a number"
        ) from None


def _plan_kv(clause: str, body: str, allowed: tuple[str, ...]) -> dict[str, str]:
    """Parse ``k=v,k=v`` with precise errors naming the offending token."""
    kv: dict[str, str] = {}
    for item in filter(None, (i.strip() for i in body.split(","))):
        key, eq, value = item.partition("=")
        if not eq or not value:
            raise FaultPlanError(
                f"fault clause {clause!r}: expected key=value, got {item!r}"
            )
        if key not in allowed:
            raise FaultPlanError(
                f"fault clause {clause!r}: unknown key {key!r} "
                f"(allowed: {', '.join(allowed)})"
            )
        kv[key] = value
    return kv


@dataclass(frozen=True)
class FaultPlan:
    """A pure, seeded description of the faults to inject into one job."""

    seed: int = 0
    crashes: tuple[CrashSpec, ...] = ()
    transient_send_p: float = 0.0
    transient_rma_p: float = 0.0
    delay_p: float = 0.0

    @classmethod
    def parse(cls, text: str, seed: int = 0) -> "FaultPlan":
        """Build a plan from the CLI grammar (see module docstring).

        Raises :class:`FaultPlanError` (a ``ValueError`` subclass) naming
        the offending clause or token on any malformed input.
        """
        crashes: list[CrashSpec] = []
        send_p = rma_p = delay_p = 0.0
        if text.strip() == "(no faults)":
            text = ""  # the empty plan's describe() sentinel round-trips
        for clause in filter(None, (c.strip() for c in text.split(";"))):
            head, _, body = clause.partition(":")
            if head == "crash":
                kv = _plan_kv(clause, body, ("rank", "group", "at"))
                group = kv.get("group")
                rank_s = kv.get("rank", "any" if group is None else None)
                rank = (
                    None
                    if rank_s in ("any", None)
                    else _plan_int(clause, "rank", rank_s)
                )
                at_s = kv.get("at", "")
                kind, _, n_s = at_s.partition(":")
                if n_s == "every":
                    n = None
                elif n_s:
                    n = _plan_int(clause, "at", n_s)
                else:
                    raise FaultPlanError(
                        f"fault clause {clause!r}: crash needs at=KIND:N "
                        f"(N a 1-based index or 'every'), got at={at_s!r}"
                    )
                try:
                    crashes.append(CrashSpec(rank=rank, at=kind, n=n, group=group))
                except ValueError as exc:
                    raise FaultPlanError(f"fault clause {clause!r}: {exc}") from None
            elif head == "transient":
                kv = _plan_kv(clause, body, ("p", "send", "rma"))
                if "p" in kv:
                    send_p = rma_p = _plan_float(clause, "p", kv["p"])
                if "send" in kv:
                    send_p = _plan_float(clause, "send", kv["send"])
                if "rma" in kv:
                    rma_p = _plan_float(clause, "rma", kv["rma"])
            elif head == "delay":
                kv = _plan_kv(clause, body, ("p",))
                delay_p = _plan_float(clause, "p", kv.get("p", "0"))
            else:
                raise FaultPlanError(
                    f"unknown fault clause {head!r} in {text!r} "
                    f"(known: crash, transient, delay)"
                )
        return cls(
            seed=seed,
            crashes=tuple(crashes),
            transient_send_p=send_p,
            transient_rma_p=rma_p,
            delay_p=delay_p,
        )

    def describe(self) -> str:
        parts = []
        for c in self.crashes:
            n = "every" if c.n is None else c.n
            if c.group is not None:
                parts.append(f"crash:group={c.group},at={c.at}:{n}")
            else:
                rank = "any" if c.rank is None else c.rank
                parts.append(f"crash:rank={rank},at={c.at}:{n}")
        if self.transient_send_p or self.transient_rma_p:
            parts.append(
                f"transient:send={self.transient_send_p},rma={self.transient_rma_p}"
            )
        if self.delay_p:
            parts.append(f"delay:p={self.delay_p}")
        return "; ".join(parts) or "(no faults)"


class FaultInjector:
    """Per-job realization of a :class:`FaultPlan` over ``nranks`` ranks.

    The fabric and communicators consult the injector at every send,
    collective entry, RMA op and phase boundary.  All counters are
    per-rank and incremented only by that rank's own thread, so the
    decision stream each rank observes is a pure function of its program
    order — reproducible across runs and thread schedules.

    ``disarmed`` carries crash tokens that already fired in a previous
    incarnation of the job: after a shrink-and-restart recovery the same
    "process death" does not happen twice (the recovery driver passes
    :meth:`fired_tokens` of the failed attempt forward).

    ``grid`` is the (pr, pc) process-grid shape, required to resolve
    correlated ``group=row`` / ``group=col`` crash specs.
    """

    def __init__(
        self,
        plan: FaultPlan,
        nranks: int,
        disarmed: "frozenset | set | None" = None,
        retry: RetryPolicy | None = None,
        grid: "tuple[int, int] | None" = None,
    ) -> None:
        self.plan = plan
        self.nranks = nranks
        self.disarmed: set = set(disarmed or ())
        self.retry = retry or RetryPolicy()
        self.grid = grid
        if grid is not None and grid[0] * grid[1] != nranks:
            raise ValueError(f"grid {grid} does not cover {nranks} ranks")
        if grid is None and any(
            c.group in ("row", "col") for c in plan.crashes
        ):
            raise FaultPlanError(
                "plan uses crash:group=row/col but the injector was built "
                "without a (pr, pc) grid shape"
            )
        self._lock = threading.Lock()
        #: crash tokens fired during this job ((spec index, occurrence))
        self.fired: list[tuple[int, int]] = []
        #: per-rank injected-fault log, appended only by the rank's own
        #: thread — the determinism test compares these across runs
        self.events: list[list[tuple]] = [[] for _ in range(nranks)]
        self._counts: list[dict[str, int]] = [
            {"send": 0, "collective": 0, "rma": 0} for _ in range(nranks)
        ]

    # -- crash scheduling ----------------------------------------------------

    def _victim(self, spec_idx: int, occurrence: int) -> int:
        """Seeded victim rank for a ``rank=any`` crash spec."""
        return _mix(self.plan.seed, _CAT_VICTIM, spec_idx, occurrence) % self.nranks

    def _group_members(self, spec: CrashSpec, spec_idx: int, occurrence: int):
        """Victim set of one crash occurrence (singleton unless correlated)."""
        if spec.group is None:
            rank = spec.rank if spec.rank is not None else self._victim(spec_idx, occurrence)
            return (rank,)
        base = spec.group.partition(":")[0]
        if base == "row":
            pr, pc = self.grid
            i = _mix(self.plan.seed, _CAT_GROUP, spec_idx, occurrence) % pr
            return tuple(range(i * pc, (i + 1) * pc))
        if base == "col":
            pr, pc = self.grid
            j = _mix(self.plan.seed, _CAT_GROUP, spec_idx, occurrence) % pc
            return tuple(range(j, self.nranks, pc))
        # clique:K — K distinct seeded ranks
        k = min(spec.clique_size(), self.nranks)
        members: list[int] = []
        draw = 0
        while len(members) < k:
            r = _mix(self.plan.seed, _CAT_CLIQUE, spec_idx, occurrence, draw) % self.nranks
            draw += 1
            if r not in members:
                members.append(r)
        return tuple(sorted(members))

    def _check_crash(self, rank: int, kind: str, count: int) -> None:
        for i, spec in enumerate(self.plan.crashes):
            if spec.at != kind:
                continue
            if spec.n is not None and spec.n != count:
                continue
            token = (i, count)
            if token in self.disarmed:
                continue
            if rank not in self._group_members(spec, i, count):
                continue
            with self._lock:
                if token not in self.fired:
                    self.fired.append(token)
            self.events[rank].append(("crash", kind, count))
            raise RankKilledError(
                f"rank {rank} killed by fault plan (spec #{i}: {kind} #{count}, "
                f"seed {self.plan.seed})"
            )

    def fired_tokens(self) -> set:
        with self._lock:
            return set(self.fired)

    def report(self, rank: int) -> tuple:
        """What rank ``rank`` hands back at exit: fired crash tokens and its
        injected-fault log."""
        return sorted(self.fired_tokens()), list(self.events[rank])

    def absorb(self, rank: int, report: tuple) -> None:
        """Merge a rank's :meth:`report` into this injector.

        The process transport forks one injector copy per rank, so crashes
        fire and events log in the children; the parent's copy — the one
        the recovery driver disarms from — adopts what each child reports.
        On the thread transport the ranks share this very object and every
        step is a no-op."""
        fired, events = report
        with self._lock:
            for tok in fired:
                if tok not in self.fired:
                    self.fired.append(tok)
            self.events[rank] = events

    # -- per-operation hooks (called from the rank's own thread) --------------

    def on_send(self, rank: int) -> "float | None":
        """Fault point for one send attempt.

        Raises :class:`RankKilledError` (scheduled crash) or
        :class:`TransientCommError` (lossy link).  Returns ``None`` for an
        in-order delivery, or a uniform ``u in [0, 1)`` selecting the
        seeded queue slot of a delayed/reordered delivery.
        """
        c = self._counts[rank]
        c["send"] += 1
        n = c["send"]
        self._check_crash(rank, "send", n)
        p = self.plan.transient_send_p
        if p > 0.0 and _unit(self.plan.seed, _CAT_SEND_FAIL, rank, n) < p:
            self.events[rank].append(("send-fail", n))
            raise TransientCommError(
                f"rank {rank}: injected transient send failure (send #{n})"
            )
        if self.plan.delay_p > 0.0 and _unit(self.plan.seed, _CAT_DELAY, rank, n) < self.plan.delay_p:
            u = _unit(self.plan.seed, _CAT_DELAY_SLOT, rank, n)
            self.events[rank].append(("delay", n))
            return u
        return None

    def on_collective(self, rank: int) -> None:
        """Fault point at one collective entry (crashes only)."""
        c = self._counts[rank]
        c["collective"] += 1
        self._check_crash(rank, "collective", c["collective"])

    def on_rma(self, rank: int) -> None:
        """Fault point for one one-sided RMA op attempt."""
        c = self._counts[rank]
        c["rma"] += 1
        n = c["rma"]
        self._check_crash(rank, "rma", n)
        p = self.plan.transient_rma_p
        if p > 0.0 and _unit(self.plan.seed, _CAT_RMA_FAIL, rank, n) < p:
            self.events[rank].append(("rma-fail", n))
            raise TransientCommError(
                f"rank {rank}: injected transient RMA failure (op #{n})"
            )

    def on_phase(self, rank: int, phase: int) -> None:
        """Fault point at an MCM phase boundary (crashes only).

        ``phase`` is the 1-based global phase number about to start, which
        doubles as the occurrence index so ``at=phase:every`` kills one
        seeded rank per boundary, each boundary at most once across
        restarts.
        """
        self._check_crash(rank, "phase", phase)


__all__ = [
    "CRASH_GROUPS",
    "CRASH_KINDS",
    "CrashSpec",
    "FaultInjector",
    "FaultPlan",
    "RetryPolicy",
]
