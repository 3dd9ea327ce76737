"""MCM-DIST augments level-parallel in every phase and never opens a
one-sided window.

``Window.__init__`` is patched to raise, on both backends (forked ranks
inherit the patch), and the engine must still solve every run below with
the mates the path-parallel engine returned: ``er`` 7 on 2x2 (one
path-parallel phase under the k < 2p² switch), ``er`` 12 on 3x3 (five), a
hand-off forced after phase 3's BFS on 2x2, and a restart from phase 2's
snapshot.
"""

import hashlib

import numpy as np
import pytest

from repro.graphs.rmat import er
from repro.matching.mcm_dist import run_mcm_dist
from repro.runtime import rma

#: the mates of the engine that still switched to path-parallel
#: augmentation for k < 2p², as sha256 over mate_r then mate_c
ER7 = "c34170076df42172b0fca99b72534ba475f505467088719ddca76ba8742af972"
ER12 = "ddb87736006da2d1d0e18b2abf276d87ad9af4b8046cdf2c6189edde3383ce7d"


def _digest(mate_r, mate_c):
    h = hashlib.sha256(np.ascontiguousarray(mate_r, np.int64).tobytes())
    h.update(np.ascontiguousarray(mate_c, np.int64).tobytes())
    return h.hexdigest()


@pytest.fixture
def no_window(monkeypatch):
    def refuse(self, *args, **kwargs):
        raise AssertionError("MCM-DIST opened a one-sided window")

    monkeypatch.setattr(rma.Window, "__init__", refuse)


@pytest.mark.parametrize("backend", ["thread", "process"])
@pytest.mark.parametrize("case", ["er7-2x2", "er12-3x3", "handoff", "restart"])
def test_mcm_dist_never_opens_a_window(no_window, force_handoff, case, backend):
    scale, g, sha, kwargs = {
        "er7-2x2": (7, 2, ER7, {}),
        "er12-3x3": (12, 3, ER12, {}),
        "handoff": (12, 2, ER12, {}),
        "restart": (12, 3, ER12, dict(max_restarts=2, faults="crash:rank=1,at=phase:3")),
    }[case]
    if case == "handoff":
        force_handoff(3)
    mate_r, mate_c, stats = run_mcm_dist(er(scale, seed=1), g, g, backend=backend, timeout=60,
                                         **kwargs)
    assert _digest(mate_r, mate_c) == sha
    assert stats.restarts == (case == "restart")
    assert stats.tail_phases == (3 if case == "handoff" else 0)
    # every phase that found paths augmented them level-parallel, the
    # hand-off phase's in the tail
    assert stats.augment_level_calls == stats.phases - 1 - max(stats.tail_phases - 1, 0)
