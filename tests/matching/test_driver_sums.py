"""The driver sums a job's counters; no collective carries them.

``job.launch`` sums every per-rank counter (``job.SUMMED``, the
``comm_by_alg`` tables, the phase ledger) off the stats the executor
returns anyway.  So the engines spend no collective on bookkeeping:
MCM-DIST makes no collective after its tail's gather, and a job that never
hands off closes on one grid allgather of its mate slices; MWM-DIST runs
no allreduce at all (a snapshot, given a store, is one grid allgather and
a barrier), and its tail's collectives are the gather and one grid
allgather per tail phase, the phase-end's.
"""

import copy

import pytest

from repro.graphs import suite
from repro.graphs.generators import edge_weights
from repro.matching import job
from repro.matching.mcm_dist import run_mcm_dist
from repro.matching.mwm_dist import run_mwm_dist

#: hands off on both grids below, under MCM-DIST's rule and MWM-DIST's
ROAD = suite.load_scaled("road_usa", target_nnz=800, seed=1)[0]
GRIDS = [(2, 2, "thread"), (1, 2, "process")]


@pytest.fixture
def per_rank(monkeypatch):
    """The per-rank stats of the job's last attempt, as ``spmd`` returned
    them to ``launch``, before it summed them."""
    seen: list = []
    launch_spmd = job.spmd

    def spmd(*args, **kwargs):
        result = launch_spmd(*args, **kwargs)
        seen[:] = [copy.deepcopy(st) for _, _, st in result.values]
        return result

    monkeypatch.setattr(job, "spmd", spmd)
    return seen


def _assert_summed(stats, ranks):
    for name in job.SUMMED:
        assert getattr(stats, name) == sum(getattr(st, name) for st in ranks), name
    merged: dict = {}
    for st in ranks:
        for key, counters in st.comm_by_alg.items():
            into = merged.setdefault(key, dict.fromkeys(counters, 0))
            for field, value in counters.items():
                into[field] += value
    assert stats.comm_by_alg == merged
    for phase, ledger in stats.phase_ledger.items():
        assert ledger == tuple(map(sum, zip(*(st.phase_ledger[phase] for st in ranks))))


def _collectives(stats):
    """Per rank, ``(name, communicator id, inside the tail span)`` of every
    collective in the order the rank entered them."""
    out = []
    for spans in stats.trace.spans:
        tail = [s for s in spans if s.name == "tail"]
        out.append([
            (s.name, s.args["comm"], any(t.ts <= s.ts <= t.ts + t.dur for t in tail))
            for s in sorted(spans, key=lambda s: s.bseq) if s.cat == "comm"
        ])
    return out


@pytest.mark.parametrize("pr,pc,backend", GRIDS)
@pytest.mark.parametrize("seam", ["rule", "no_handoff"])
def test_mcm_counters_are_summed_by_the_driver(request, per_rank, seam, pr, pc, backend):
    if seam == "no_handoff":
        request.getfixturevalue("no_handoff")
    stats = run_mcm_dist(ROAD, pr, pc, backend=backend, trace="ticks", timeout=60)[2]
    assert (stats.tail_phases > 0) == (seam == "rule")
    _assert_summed(stats, per_rank)
    assert stats.edges_examined > 0 and stats.expand_words + stats.fold_words > 0
    for calls in _collectives(stats):
        # the last collective is a grid (communicator 0) allgather: the
        # tail's gather of the graph, with nothing after it, or the closing
        # one of the mates
        assert calls[-1] == ("allgather", 0, seam == "rule")
        assert sum(in_tail for *_, in_tail in calls) == (seam == "rule")


@pytest.mark.parametrize("pr,pc,backend", GRIDS)
def test_mwm_counters_are_summed_by_the_driver(per_rank, pr, pc, backend):
    weights = edge_weights(ROAD, "uniform", seed=3)
    stats = run_mwm_dist(ROAD, weights, pr, pc, backend=backend, trace="ticks", timeout=60)[2]
    assert stats.tail_phases == 1
    _assert_summed(stats, per_rank)
    assert stats.price_updates > 0 and stats.edges_examined > 0
    for calls in _collectives(stats):
        # no store: no allreduce; the tail's gather, then its one phase's
        # end, a grid allgather that is the job's last collective
        assert all(name != "allreduce" for name, _, _ in calls)
        assert calls[-1] == ("allgather", 0, True)
        assert [call for call in calls if call[2]] == [("allgather", 0, True)] * 2
