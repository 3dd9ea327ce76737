"""Differential tests: every seeded lint fixture's bug is real.

The acceptance bar for the analyzer is that its findings are not
hypothetical: the divergent-collective fixture genuinely hangs the
simulated fabric (caught by the timeout backstop), the SPMD6xx fixtures
genuinely produce divergent values across ranks, and the SPMD7xx fixtures
genuinely fail to pickle.  Each test pairs the runtime reproduction with
the static finding at the same source location.
"""

import pickle
import sys
from pathlib import Path

import pytest

from repro.analysis import lint_file
from repro.runtime import spmd

REPO_ROOT = Path(__file__).resolve().parents[2]
FIXTURE = REPO_ROOT / "examples" / "buggy_spmd.py"

sys.path.insert(0, str(REPO_ROOT / "examples"))
import buggy_spmd  # noqa: E402


def finding(code, function):
    for f in lint_file(FIXTURE):
        if f.code == code and f.function == function:
            return f
    raise AssertionError(f"no {code} finding in {function}")


def fixture_line(substring):
    src = FIXTURE.read_text().splitlines()
    for i, line in enumerate(src, start=1):
        if substring in line:
            return i
    raise AssertionError(f"{substring!r} not in fixture")


def test_fixed_ring_runs_clean():
    """The canonical fix of a ring whose ranks each receive from the left
    before sending right: one collective every rank enters — here an
    all-to-all whose only nonempty block goes to the right neighbour."""

    def fixed_ring(comm):
        left = (comm.rank - 1) % comm.size
        right = (comm.rank + 1) % comm.size
        blocks = [None] * comm.size
        blocks[right] = comm.rank
        return comm.alltoall(blocks)[left]

    result = spmd(4, fixed_ring, timeout=5.0)
    assert sorted(result.values) == [0, 1, 2, 3]


# --------------------------------------------------------------- SPMD602


def test_clock_seeded_mates_diverge_across_ranks():
    """SPMD602: each rank reads a different nanosecond, so the 'replicated'
    mate vectors disagree.  A few retries guard against the (astronomically
    unlikely) case of two ranks reading identical counters."""
    for _ in range(5):
        result = spmd(4, buggy_spmd.clock_seeded_mates, 997, timeout=10.0)
        gathered = result[0]
        if any(g != gathered[0] for g in gathered):
            break
    else:
        pytest.fail("wall-clock-seeded mates never diverged across ranks")

    f = finding("SPMD602", "clock_seeded_mates")
    assert f.line == fixture_line("time.perf_counter_ns()")


# --------------------------------------------------------------- SPMD702/703


def test_lambda_payload_does_not_pickle():
    """SPMD702: the payload the fixture ships through bcast is exactly the
    kind of object a process backend would have to pickle — and cannot."""
    with pytest.raises(Exception) as exc:
        pickle.dumps(lambda u, v: u ^ v)
    assert isinstance(exc.value, (pickle.PicklingError, TypeError, AttributeError))
    finding("SPMD702", "lambda_payload")


def test_closure_launcher_entry_point_does_not_pickle():
    """SPMD703: a closure over local state cannot be shipped to worker
    processes; module-level functions (the fix) can."""

    def make_closure():
        captured = {"data": 123}

        def rank_main(comm):
            return captured

        return rank_main

    with pytest.raises(Exception):
        pickle.dumps(make_closure())
    # the fixed pattern — a module-level function — pickles fine
    pickle.dumps(buggy_spmd.divergent_reduction)
    finding("SPMD703", "closure_launcher")


# ------------------------------------------------------------ SPMD101 (interproc)


def test_divergent_via_helper_deadlocks_at_runtime():
    """The interprocedural SPMD101 fixture is a real deadlock, not just a
    lint finding: non-root ranks never enter the helper's allreduce."""
    with pytest.raises(Exception) as exc:
        spmd(2, buggy_spmd.divergent_via_helper, timeout=0.4, join_grace=2.0)
    assert "allreduce" in str(exc.value) or "Deadlock" in type(exc.value).__name__

    f = finding("SPMD101", "divergent_via_helper")
    assert "via _root_summary->_fold" in f.message
