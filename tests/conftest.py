"""Test seams shared across the suite."""

import glob
import multiprocessing
import os
import threading
from contextlib import ExitStack, contextmanager

import pytest

import repro.matching.mcm_dist as _mcm_dist
import repro.matching.msbfs as _msbfs
import repro.matching.mwm_dist as _mwm_dist
import repro.runtime.comm as _comm
from benchmarks.handoff_seam import handoff_rule, no_handoff as grid_only
from repro.matching.augment import choose_augment_mode
from repro.matching.msbfs import pull_is_cheaper
from repro.runtime.trace import tspan


@pytest.fixture(autouse=True)
def no_leaked_ranks_or_segments():
    """After every test: no live process-backend rank and no shared-memory
    segment left behind by this process.  Segment names carry the creating
    pid (``procfabric.ProcessFabric.uid``), so other processes on the host
    cannot trip the check."""
    yield
    ranks = [p.name for p in multiprocessing.active_children()
             if p.name.startswith("spmd-rank-")]
    assert not ranks, f"orphan rank processes: {ranks}"
    segments = glob.glob(f"/dev/shm/rx{os.getpid() % 0xFFFFF:05x}*")
    assert not segments, f"leaked /dev/shm segments: {segments}"


@contextmanager
def walk_everywhere():
    """Run the body with every communicator walking its schedules for
    real, whatever its size (``comm._HUB_MIN_RANKS`` above every test
    grid) — the executed definition of the logical ledger, and the seam
    that lets a test compare the hub and walk plans *at the same
    communicator size*.  Nothing public reads or sets the constant; forked
    ranks inherit it, so the process backend is covered too."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_comm, "_HUB_MIN_RANKS", 1 << 30)
        yield


@pytest.fixture
def force_augment(monkeypatch):
    """A setter that forces MCM-DIST's augmentation mechanism for the rest
    of the test: ``force_augment("level")`` or ``("path")`` replaces the
    engine's k < 2p² rule (``mcm_dist.choose_augment_mode``, which nothing
    public sets), ``force_augment(None)`` restores it.  Forked ranks
    inherit the patch, so the process backend is covered too."""

    def force(mode):
        rule = choose_augment_mode if mode is None else (lambda k, p: mode)
        monkeypatch.setattr(_mcm_dist, "choose_augment_mode", rule)

    return force


@pytest.fixture
def force_pull(monkeypatch):
    """A setter that forces every MCM-DIST block, and every iteration of its
    serial tail, to pull in Step 1 for the rest of the test and names the
    direction to run it under: ``force_pull("bottomup")`` replaces the
    expected-read rule (``pull_is_cheaper``, the blocks' and the tail's)
    with "always" and returns ``"auto"``; any other direction restores the
    rule and comes back unchanged.  Forked ranks inherit the patch, so the
    process backend is covered too."""

    def force(direction):
        pulling = direction == "bottomup"
        rule = (lambda *args: True) if pulling else pull_is_cheaper
        for module in (_mcm_dist, _msbfs):
            monkeypatch.setattr(module, "pull_is_cheaper", rule)
        return "auto" if pulling else direction

    return force


@pytest.fixture
def force_handoff(monkeypatch):
    """A setter that makes MCM-DIST hand off to its serial tail right after
    phase ``k``'s BFS and MWM-DIST right after auction round ``k``, and
    after no other: ``force_handoff(k)`` replaces the priced rule (each
    engine's ``tail_is_cheaper``, which nothing public sets) — MCM-DIST's
    through the seam the hand-off sweep shares
    (``benchmarks/handoff_seam.py``), MWM-DIST's with one that reads the
    round the calling rank last ran, noted by a wrapped ``mwm_dist.tspan``
    (its ``auction_round`` span); ``force_handoff(None)`` never hands off.
    Forked ranks inherit the patches, so the process backend is covered
    too."""
    entered = threading.local()

    def note_round(comm, name, cat="kernel", **args):
        if name == "auction_round":
            entered.round = args["round"]
        return tspan(comm, name, cat, **args)

    def force(k):
        rules.enter_context(handoff_rule(lambda phase: phase == k))
        monkeypatch.setattr(_mwm_dist, "tspan", note_round)
        monkeypatch.setattr(_mwm_dist, "tail_is_cheaper", lambda *args: entered.round == k)

    with ExitStack() as rules:
        yield force


@pytest.fixture
def no_handoff():
    """MCM-DIST runs every phase and MWM-DIST every round distributed for
    the whole test (neither engine's ``tail_is_cheaper`` fires,
    ``benchmarks/handoff_seam.py``'s ``no_handoff``): the seam the tests
    that pin the distributed schedule's shape, ledger or fingerprint opt
    into.  Forked ranks inherit the patches."""
    with grid_only():
        yield
