"""Per-rank span tracing for the simulated runtime.

The aggregate counters of :class:`~repro.runtime.comm.CommStats` say *how
much* was communicated; they cannot say *when* a rank waited, which
collective sat on the critical path, or why a chaos restart cost what it
did.  This module is the structured instrument behind the paper's per-phase
breakdowns (Figs. 4–9): every rank records a stack of nestable spans —
``phase > bfs_iter > spmv > fold``, one span per collective with
``{op, alg, words, peers}`` arguments, RMA epochs on their own lanes — and
the executor merges the rank-local buffers into one :class:`DistTrace`.

Design rules
------------

* **Zero overhead when off.**  Every hook site in the runtime guards on a
  single ``tracer is None`` attribute check; with tracing disabled no span
  object is ever allocated and no clock is ever read.
* **Observation only.**  The tracer never communicates and never branches
  the traced program: traced runs produce bit-identical results to
  untraced runs (asserted by tests).
* **Deterministic option.**  Timestamps come from a pluggable clock:
  ``"wall"`` (``time.perf_counter``) for real profiling, ``"ticks"``
  (:class:`repro.perfmodel.clock.MonotonicTicks`, one private instance per
  rank) for byte-identical traces across runs — the contract the property
  tests and the chaos replay tests rely on.
* **Well-formed by construction.**  Main-lane spans follow stack
  discipline (``begin``/``end`` pairs); spans a crash left open are
  flushed — closed at the current clock and marked ``truncated`` — when
  the job exits, so even a killed rank exports balanced begin/end pairs.

Consumers: :meth:`DistTrace.to_chrome` emits Chrome trace-event JSON (one
pid per rank, loadable in Perfetto via ``repro spmd --trace out.json``);
:mod:`repro.simulate.critpath` replays a :class:`DistTrace` to report the
per-phase critical path (``repro trace-report``).
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator

from ..perfmodel.clock import MonotonicTicks

#: seconds → Chrome trace-event microseconds (tick clocks scale the same
#: way; ``otherData.clock`` records which unit the numbers mean)
_CHROME_SCALE = 1e6

#: the default lane of the per-rank span stack; other lanes (RMA epoch
#: lanes) carry non-nesting complete spans and map to their own Chrome tids
MAIN_TRACK = "main"


class TraceError(RuntimeError):
    """Misuse of the tracer API (``end`` without a matching ``begin``)."""


def make_trace_clock(kind: str) -> Callable[[], float]:
    """Build one rank's timestamp source: ``"wall"`` or ``"ticks"``."""
    if kind == "wall":
        return time.perf_counter
    if kind == "ticks":
        return MonotonicTicks()
    raise ValueError(f"unknown trace clock {kind!r} (wall/ticks)")


@dataclass
class Span:
    """One closed span of one rank's timeline.

    ``ts``/``dur`` are in the tracer's clock units (seconds under the wall
    clock, event ticks under the deterministic clock).  ``args`` carries the
    span's structured payload — collectives record ``{alg, words, messages,
    peers, comm}``, blocking time accumulates under ``wait`` while the span
    is the innermost open one.  ``track`` is the rank-local lane: the
    nesting main stack, or an ``rma:w<id>`` epoch lane.
    """

    name: str
    cat: str
    rank: int
    ts: float
    dur: float = 0.0
    args: dict = field(default_factory=dict)
    track: str = MAIN_TRACK
    # per-tracer event sequence numbers assigned at begin()/end(); they
    # reproduce exact program order in the B/E export even when a tick
    # clock hands equal timestamps to a parent and its first child
    bseq: int = 0
    eseq: int = 0

    @property
    def t1(self) -> float:
        return self.ts + self.dur

    @property
    def wait(self) -> float:
        return self.args.get("wait", 0.0)


class Tracer:
    """One rank's span recorder (owned and written by that rank's thread).

    ``begin``/``end`` maintain the main-lane stack; :meth:`span` is the
    context-manager form; :meth:`add_complete` records an already-closed
    span on an arbitrary lane (RMA epochs).  :meth:`add_wait` charges
    blocking time — measured by the runtime at the fabric's receive-match,
    split-rendezvous and barrier points — to the innermost open span.
    """

    def __init__(self, rank: int, clock: Callable[[], float] | None = None) -> None:
        self.rank = rank
        self.clock = time.perf_counter if clock is None else clock
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self._seq = 0
        self._win_seq = 0
        #: blocking time observed while no span was open
        self.idle_wait = 0.0

    def now(self) -> float:
        return self.clock()

    def _next_seq(self) -> int:
        self._seq += 1
        return self._seq

    def next_win_id(self) -> int:
        """Job-deterministic label for this rank's next RMA window lane.

        The runtime's real window ids come from a process-global counter
        (they must be unique across fabrics), which would make otherwise
        identical tick-clock traces differ between runs in one process —
        so the trace numbers windows per rank in creation order instead.
        """
        wid = self._win_seq
        self._win_seq += 1
        return wid

    # -- main-lane stack ----------------------------------------------------

    def begin(self, name: str, cat: str = "span", **args: Any) -> Span:
        sp = Span(name=name, cat=cat, rank=self.rank, ts=self.now(),
                  args=dict(args), bseq=self._next_seq())
        self._stack.append(sp)
        return sp

    def end(self, **args: Any) -> Span:
        if not self._stack:
            raise TraceError(f"rank {self.rank}: end() with no open span")
        sp = self._stack.pop()
        sp.dur = max(0.0, self.now() - sp.ts)
        sp.eseq = self._next_seq()
        if args:
            sp.args.update(args)
        self.spans.append(sp)
        return sp

    @contextmanager
    def span(self, name: str, cat: str = "span", **args: Any):
        """Context-manager form of ``begin``/``end``; yields the open
        :class:`Span`, so a body that only learns what it was on the way
        out can rename it."""
        sp = self.begin(name, cat, **args)
        try:
            yield sp
        finally:
            self.end()

    @property
    def depth(self) -> int:
        return len(self._stack)

    # -- off-stack lanes and wait accounting --------------------------------

    def add_complete(
        self, name: str, ts: float, dur: float, cat: str = "span",
        track: str = MAIN_TRACK, **args: Any,
    ) -> Span:
        """Record an already-closed span (RMA epochs live on their own
        lane, whose intervals may interleave with other windows' epochs)."""
        sp = Span(name=name, cat=cat, rank=self.rank, ts=ts,
                  dur=max(0.0, dur), args=dict(args), track=track,
                  bseq=self._next_seq(), eseq=self._next_seq())
        self.spans.append(sp)
        return sp

    def add_wait(self, dt: float) -> None:
        if dt <= 0.0:
            return
        if self._stack:
            args = self._stack[-1].args
            args["wait"] = args.get("wait", 0.0) + dt
        else:
            self.idle_wait += dt

    def flush(self) -> None:
        """Close every span still open at the current clock, outermost
        last, marking each ``truncated`` — called at ``spmd()`` exit so a
        crashed rank's timeline still exports balanced begin/end pairs."""
        t = self.now()
        while self._stack:
            sp = self._stack.pop()
            sp.dur = max(0.0, t - sp.ts)
            sp.eseq = self._next_seq()
            sp.args["truncated"] = True
            self.spans.append(sp)


#: Reusable no-op context manager handed out when tracing is off.
_NULL_SPAN = nullcontext()


def tspan(comm: Any, name: str, cat: str = "kernel", **args: Any):
    """Span context manager over ``comm.tracer``; free no-op when off.

    The kernel/algorithm layers (``distmat.ops``, ``matching.mcm_dist``)
    use this so their hot paths stay a single attribute check per span
    site when tracing is disabled.  ``as`` binds the open :class:`Span`,
    or ``None`` when tracing is off.
    """
    tr = comm.tracer
    return _NULL_SPAN if tr is None else tr.span(name, cat, **args)


# ---------------------------------------------------------------------------
# the merged per-job trace
# ---------------------------------------------------------------------------


@dataclass
class DistTrace:
    """All ranks' spans of one SPMD job (plus restart history, if any).

    ``spans[r]`` is rank r's buffer in completion order.  ``meta`` records
    the clock kind, per-rank idle wait, and — after shrink-and-restart
    recovery — one entry per merged attempt.
    """

    nranks: int
    spans: list[list[Span]]
    meta: dict = field(default_factory=dict)

    def all_spans(self) -> Iterator[Span]:
        for rank_spans in self.spans:
            yield from rank_spans

    @property
    def nspans(self) -> int:
        return sum(len(s) for s in self.spans)

    def max_ts(self) -> float:
        return max((sp.t1 for sp in self.all_spans()), default=0.0)

    def min_ts(self) -> float:
        return min((sp.ts for sp in self.all_spans()), default=0.0)

    # -- cross-checking against CommStats ------------------------------------

    def comm_words_by_key(self) -> dict[str, int]:
        """Traced words per ``"op:alg"`` over all ranks — the quantity that
        must equal :attr:`CommStats.by_alg` / ``DistStats.comm_by_alg``
        words exactly (the tracer measures the same counters the stats
        record, so any mismatch means a span boundary leaks traffic)."""
        out: dict[str, int] = {}
        for sp in self.all_spans():
            alg = sp.args.get("alg")
            if sp.cat != "comm" or alg is None:
                continue
            key = f"{sp.name}:{alg}"
            out[key] = out.get(key, 0) + int(sp.args.get("words", 0))
        return out

    def comm_words_by_op(self) -> dict[str, int]:
        """Traced words per collective op name over all ranks."""
        out: dict[str, int] = {}
        for sp in self.all_spans():
            if sp.cat != "comm":
                continue
            out[sp.name] = out.get(sp.name, 0) + int(sp.args.get("words", 0))
        return out

    def words_sent(self, rank: int) -> int:
        """Total traced payload words rank ``rank`` sent (all comm spans)."""
        return sum(
            int(sp.args.get("words", 0))
            for sp in self.spans[rank] if sp.cat == "comm"
        )

    # -- restart merging ------------------------------------------------------

    def concat(
        self,
        other: "DistTrace",
        boundary_name: str = "restart",
        **boundary_args: Any,
    ) -> "DistTrace":
        """Append ``other``'s timeline after this one's.

        ``other``'s timestamps are shifted past this trace's end (tick
        clocks restart at 0 on every fabric rebuild), and one zero-length
        ``boundary_name`` span (cat ``fault``) is stamped on every rank at
        the seam — which is how a chaos run's restarts show up as explicit,
        Perfetto-visible events.
        """
        if other.nranks != self.nranks:
            raise ValueError(
                f"cannot concat traces of {self.nranks} and {other.nranks} ranks"
            )
        seam = self.max_ts() + 1.0
        shift = seam - min(other.min_ts(), 0.0)
        merged: list[list[Span]] = []
        for r in range(self.nranks):
            mine = list(self.spans[r])
            seqbase = max((max(sp.bseq, sp.eseq) for sp in mine), default=0)
            sb = Span(name=boundary_name, cat="fault", rank=r, ts=seam,
                      dur=0.0, args=dict(boundary_args),
                      bseq=seqbase + 1, eseq=seqbase + 2)
            mine.append(sb)
            for sp in other.spans[r]:
                mine.append(Span(
                    name=sp.name, cat=sp.cat, rank=sp.rank,
                    ts=sp.ts + shift, dur=sp.dur, args=dict(sp.args),
                    track=sp.track,
                    bseq=seqbase + 2 + sp.bseq, eseq=seqbase + 2 + sp.eseq,
                ))
            merged.append(mine)
        meta = dict(self.meta)
        attempts = list(meta.get("attempts", []))
        attempts.append({"at": seam, **boundary_args})
        meta["attempts"] = attempts
        idle = other.meta.get("idle_wait")
        if idle is not None:
            mine_idle = meta.get("idle_wait", [0.0] * self.nranks)
            meta["idle_wait"] = [a + b for a, b in zip(mine_idle, idle)]
        return DistTrace(self.nranks, merged, meta)

    # -- Chrome trace-event export / import ----------------------------------

    def _track_tids(self, rank: int) -> dict[str, int]:
        """Stable lane → tid mapping: main = 0, other lanes sorted."""
        extra = sorted({sp.track for sp in self.spans[rank]} - {MAIN_TRACK})
        tids = {MAIN_TRACK: 0}
        tids.update({track: i + 1 for i, track in enumerate(extra)})
        return tids

    def to_chrome(self) -> dict:
        """Chrome trace-event JSON object: one pid per rank, ``B``/``E``
        event pairs in exact program order, metadata naming processes and
        lanes.  ``json.dump`` the result (or use :meth:`dump`) and load it
        in Perfetto / ``chrome://tracing``."""
        events: list[dict] = []
        for r in range(self.nranks):
            tids = self._track_tids(r)
            events.append({
                "ph": "M", "name": "process_name", "pid": r, "tid": 0,
                "args": {"name": f"rank {r}"},
            })
            for track, tid in tids.items():
                events.append({
                    "ph": "M", "name": "thread_name", "pid": r, "tid": tid,
                    "args": {"name": track},
                })
            # B/E pairs in per-rank program order: each span contributes a
            # begin at bseq and an end at eseq; sorting by the sequence
            # number reproduces the exact open/close order even when a
            # tick clock hands out equal timestamps
            timed: list[tuple[int, dict]] = []
            for sp in self.spans[r]:
                tid = tids[sp.track]
                timed.append((sp.bseq, {
                    "ph": "B", "name": sp.name, "cat": sp.cat, "pid": r,
                    "tid": tid, "ts": sp.ts * _CHROME_SCALE, "args": sp.args,
                }))
                timed.append((sp.eseq, {
                    "ph": "E", "name": sp.name, "cat": sp.cat, "pid": r,
                    "tid": tid, "ts": sp.t1 * _CHROME_SCALE,
                }))
            timed.sort(key=lambda pair: pair[0])
            events.extend(ev for _, ev in timed)
        return {
            "traceEvents": events,
            "displayTimeUnit": "ms",
            "otherData": dict(self.meta),
        }

    def dump(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_chrome(), fh, indent=1, sort_keys=True)
            fh.write("\n")

    @classmethod
    def from_chrome(cls, doc: dict) -> "DistTrace":
        """Rebuild a :class:`DistTrace` from :meth:`to_chrome` output (the
        consumer path of ``repro trace-report FILE``).  Replays the
        ``B``/``E`` stream per (pid, tid) in array order, so any trace this
        module wrote round-trips."""
        events = doc.get("traceEvents", [])
        track_names: dict[tuple[int, int], str] = {}
        nranks = 0
        for ev in events:
            pid = int(ev.get("pid", 0))
            nranks = max(nranks, pid + 1)
            if ev.get("ph") == "M" and ev.get("name") == "thread_name":
                track_names[(pid, int(ev.get("tid", 0)))] = ev["args"]["name"]
        spans: list[list[Span]] = [[] for _ in range(max(nranks, 1))]
        stacks: dict[tuple[int, int], list[Span]] = {}
        seq = 0
        for ev in events:
            ph = ev.get("ph")
            if ph not in ("B", "E"):
                continue
            seq += 1
            pid = int(ev.get("pid", 0))
            tid = int(ev.get("tid", 0))
            key = (pid, tid)
            if ph == "B":
                stacks.setdefault(key, []).append(Span(
                    name=ev.get("name", "?"), cat=ev.get("cat", "span"),
                    rank=pid, ts=float(ev.get("ts", 0.0)) / _CHROME_SCALE,
                    args=dict(ev.get("args", {})),
                    track=track_names.get(key, MAIN_TRACK if tid == 0 else f"tid{tid}"),
                    bseq=seq,
                ))
            else:
                stack = stacks.get(key)
                if not stack:
                    raise TraceError(
                        f"unbalanced trace events: E without B on pid {pid} tid {tid}"
                    )
                sp = stack.pop()
                sp.dur = max(0.0, float(ev.get("ts", 0.0)) / _CHROME_SCALE - sp.ts)
                sp.eseq = seq
                spans[pid].append(sp)
        dangling = [key for key, stack in stacks.items() if stack]
        if dangling:
            raise TraceError(
                f"unbalanced trace events: B without E on (pid, tid) {dangling[:4]}"
            )
        return cls(max(nranks, 1), spans, meta=dict(doc.get("otherData", {})))

    @classmethod
    def load(cls, path: str) -> "DistTrace":
        with open(path) as fh:
            return cls.from_chrome(json.load(fh))


__all__ = [
    "DistTrace",
    "MAIN_TRACK",
    "Span",
    "TraceError",
    "Tracer",
    "make_trace_clock",
    "tspan",
]
