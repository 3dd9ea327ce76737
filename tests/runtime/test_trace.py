"""Property suite and invariants for the per-rank span tracer.

Four families:

1. hypothesis programs driving the raw :class:`Tracer` API — arbitrary
   begin/end/complete/wait sequences must yield non-negative durations,
   well-formed nesting, and an empty stack after ``flush``;
2. Chrome trace-event export — every trace (including crash-truncated
   ones) round-trips ``json.loads`` with balanced B/E pairs;
3. the cross-check invariant — on er-9 over 1x1/2x2/3x3 grids, traced
   collective words per ``op:alg`` equal ``DistStats.comm_by_alg`` words
   *exactly*, and traced runs produce bit-identical mate vectors;
4. zero overhead when off — an untraced run records nothing anywhere.
"""

import json
from collections import defaultdict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graphs.rmat import er
from repro.matching.mcm_dist import run_mcm_dist
from repro.runtime import DistTrace, Tracer, make_trace_clock, spmd, tspan
from repro.runtime.trace import MAIN_TRACK

# one tracer op: (kind, payload); "end" is applied only when a span is open
OPS = st.lists(
    st.one_of(
        st.tuples(st.just("begin"), st.sampled_from("abcd")),
        st.tuples(st.just("end"), st.none()),
        st.tuples(st.just("complete"), st.floats(0.0, 9.0)),
        st.tuples(st.just("wait"), st.floats(-1.0, 5.0)),
    ),
    max_size=60,
)


def _run_program(ops):
    tr = Tracer(0, make_trace_clock("ticks"))
    begun = 0
    for kind, arg in ops:
        if kind == "begin":
            tr.begin(arg, cat="kernel")
            begun += 1
        elif kind == "end":
            if tr.depth:
                tr.end()
        elif kind == "complete":
            t = tr.now()
            tr.add_complete("epoch", ts=t, dur=arg, track="rma:w0")
        else:
            tr.add_wait(arg)
    open_at_flush = tr.depth
    tr.flush()
    return tr, begun, open_at_flush


@given(OPS)
@settings(max_examples=200, deadline=None)
def test_program_yields_no_negative_durations_and_empty_stack(ops):
    tr, begun, _ = _run_program(ops)
    assert tr.depth == 0
    main = [sp for sp in tr.spans if sp.track == MAIN_TRACK]
    assert len(main) == begun  # every begin closed, by end() or flush()
    for sp in tr.spans:
        assert sp.dur >= 0.0
        assert sp.t1 >= sp.ts
        assert sp.args.get("wait", 0.0) >= 0.0


@given(OPS)
@settings(max_examples=200, deadline=None)
def test_program_nesting_is_well_formed(ops):
    """Main-lane (bseq, eseq) intervals are properly nested or disjoint —
    never partially overlapping — and contain their children's times."""
    tr, _, _ = _run_program(ops)
    main = sorted(
        (sp for sp in tr.spans if sp.track == MAIN_TRACK), key=lambda s: s.bseq
    )
    for sp in main:
        assert sp.bseq < sp.eseq
    for a in main:
        for b in main:
            if a is b:
                continue
            inside = a.bseq < b.bseq and b.eseq < a.eseq
            outside = b.eseq < a.bseq or a.eseq < b.bseq
            swapped = b.bseq < a.bseq and a.eseq < b.eseq
            assert inside or outside or swapped, (a, b)
            if inside:  # child's interval sits within the parent's
                assert a.ts <= b.ts and b.t1 <= a.t1


def _assert_balanced_chrome(doc):
    stacks = defaultdict(list)
    n_b = n_e = 0
    for ev in doc["traceEvents"]:
        key = (ev["pid"], ev["tid"])
        if ev["ph"] == "B":
            stacks[key].append(ev["name"])
            n_b += 1
        elif ev["ph"] == "E":
            assert stacks[key], f"E without B on {key}"
            stacks[key].pop()
            n_e += 1
    assert n_b == n_e
    assert all(not s for s in stacks.values())
    return n_b


@given(OPS)
@settings(max_examples=150, deadline=None)
def test_chrome_export_round_trips_with_balanced_pairs(ops):
    tr, _, open_at_flush = _run_program(ops)
    tr.flush()
    trace = DistTrace(1, [list(tr.spans)], meta={"clock": "ticks"})
    doc = json.loads(json.dumps(trace.to_chrome()))
    pairs = _assert_balanced_chrome(doc)
    assert pairs == trace.nspans
    back = DistTrace.from_chrome(doc)
    assert back.nspans == trace.nspans
    got = sorted((sp.name, sp.dur) for sp in back.all_spans())
    want = sorted((sp.name, sp.dur) for sp in trace.all_spans())
    for (gn, gd), (wn, wd) in zip(got, want):
        assert gn == wn
        # timestamps pass through the microsecond Chrome scale: ULP slack
        assert gd == pytest.approx(wd, rel=1e-9, abs=1e-9)
    truncated = [sp for sp in trace.all_spans() if sp.args.get("truncated")]
    assert len(truncated) == open_at_flush


# -- crash mid-span: flushed at spmd() exit ----------------------------------


class Boom(RuntimeError):
    pass


def test_spans_open_at_a_crash_are_flushed_and_export_balanced():
    # spans opened WITHOUT a context manager (the comm layer's collective
    # spans) stay open when an exception rips through them — the executor's
    # flush must close them, truncated, for every rank
    def main(comm):
        tr = comm.tracer
        tr.begin("outer", cat="phase")
        tr.begin("inner", cat="kernel")
        if comm.rank == 1:
            raise Boom("mid-span death")
        tr.end()
        tr.end()
        return comm.rank

    with pytest.raises(Boom) as info:
        spmd(3, main, trace="ticks")
    trace = info.value.spmd_trace
    assert trace is not None
    r1 = trace.spans[1]
    truncated = [sp.name for sp in r1 if sp.args.get("truncated")]
    assert truncated == ["inner", "outer"]  # innermost flushed first
    assert any(sp.name == "fault:Boom" and sp.cat == "fault" for sp in r1)
    _assert_balanced_chrome(json.loads(json.dumps(trace.to_chrome())))


# -- the cross-check invariant ------------------------------------------------


@pytest.mark.parametrize("grid", [(1, 1), (2, 2), (3, 3)],
                         ids=lambda g: f"{g[0]}x{g[1]}")
def test_traced_words_equal_commstats_exactly_and_results_bit_identical(grid):
    coo = er(scale=9, seed=0)
    mr0, mc0, st0 = run_mcm_dist(coo, *grid)
    assert st0.trace is None
    mr, mc, st = run_mcm_dist(coo, *grid, trace="ticks")
    assert np.array_equal(mr, mr0)
    assert np.array_equal(mc, mc0)
    traced = st.trace.comm_words_by_key()
    assert set(traced) == set(st.comm_by_alg)
    for key, counters in st.comm_by_alg.items():
        assert traced[key] == counters["words"], key
    # and the per-rank totals account for every word each rank sent
    total = sum(st.trace.words_sent(r) for r in range(st.trace.nranks))
    assert total == sum(d["words"] for d in st.comm_by_alg.values())


def test_tick_traces_are_byte_identical_across_runs():
    coo = er(scale=7, seed=1)

    def export():
        _, _, st = run_mcm_dist(coo, 2, 2, trace="ticks")
        return json.dumps(st.trace.to_chrome(), sort_keys=True)

    assert export() == export()


# -- zero overhead when off ---------------------------------------------------


def test_untraced_run_records_nothing():
    def main(comm):
        assert comm.tracer is None
        # the null span context is shared and stateless: safe to nest
        with tspan(comm, "a"):
            with tspan(comm, "b"):
                comm.barrier()
        return comm.allreduce(1)

    res = spmd(3, main)
    assert res.trace is None
    assert list(res) == [3, 3, 3]


def test_trace_report_formats_and_names_dominant_span():
    from repro.simulate.critpath import analyze, format_report

    coo = er(scale=7, seed=1)
    _, _, st = run_mcm_dist(coo, 2, 2, trace="ticks")
    rep = analyze(st.trace, top=3)
    json.dumps(rep)  # JSON-ready
    assert rep["nranks"] == 4
    assert rep["phases"], "expected at least the initializer segment"
    for ph in rep["phases"]:
        assert ph["dominant"] is not None
        assert 0.0 <= ph["skew"] <= 1.0
        assert ph["critical_path"], ph["label"]
    for r in rep["ranks"]:
        assert 0.0 <= r["wait_fraction"] <= 1.0
    text = format_report(rep)
    assert "critical path" in text
    assert rep["phases"][0]["label"] in text
