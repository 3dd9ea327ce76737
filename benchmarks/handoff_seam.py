"""The engines' hand-off seams: for MCM-DIST's hand-off sweep
(``bench_tail_handoff.py``) the priced tail hand-off replaced by a chosen
rule (shared by the test suite's ``force_handoff`` fixture) and the
augmentation forced to one mechanism; for ``bench_mwm.py``'s gate, no
hand-off at all."""

from __future__ import annotations

import threading
from contextlib import contextmanager

import repro.matching.mcm_dist as mcm_dist
import repro.matching.mwm_dist as mwm_dist


@contextmanager
def handoff_rule(rule):
    """For the body, MCM-DIST hands off after a phase's BFS exactly when
    ``rule(phase)`` holds, ``phase`` being the one the calling rank last
    entered (noted by a wrapped ``mcm_dist.phase_boundary``), in place of
    the priced rule (``mcm_dist.tail_is_cheaper``, which nothing public
    sets).  Forked ranks inherit the patches, so the process backend is
    covered too."""
    entered = threading.local()
    boundary, shipped = mcm_dist.phase_boundary, mcm_dist.tail_is_cheaper

    def note(grid, stats, phase_no, **kwargs):
        entered.phase = phase_no
        boundary(grid, stats, phase_no, **kwargs)

    mcm_dist.phase_boundary = note
    mcm_dist.tail_is_cheaper = lambda *args: rule(entered.phase)
    try:
        yield
    finally:
        mcm_dist.phase_boundary, mcm_dist.tail_is_cheaper = boundary, shipped


@contextmanager
def augment_mode(mode: str):
    """For the body, every MCM-DIST phase augments with ``mode`` ("level"
    or "path") in place of the k < 2p² rule (``mcm_dist.choose_augment_mode``);
    the hand-off rule prices that mechanism's augmentation too.  Forked
    ranks inherit the patch."""
    shipped = mcm_dist.choose_augment_mode
    mcm_dist.choose_augment_mode = lambda k, p: mode
    try:
        yield
    finally:
        mcm_dist.choose_augment_mode = shipped


@contextmanager
def no_handoff():
    """For the body, neither engine hands off: MCM-DIST runs every phase
    and MWM-DIST every round on the grid (``tail_is_cheaper`` never fires).
    Forked ranks inherit the patches."""
    shipped = mcm_dist.tail_is_cheaper, mwm_dist.tail_is_cheaper
    mcm_dist.tail_is_cheaper = mwm_dist.tail_is_cheaper = lambda *args: False
    try:
        yield
    finally:
        mcm_dist.tail_is_cheaper, mwm_dist.tail_is_cheaper = shipped
