"""Test seams shared across the suite."""

from contextlib import contextmanager

import pytest

import repro.runtime.comm as _comm


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
