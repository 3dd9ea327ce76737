"""Chaos on the forked-process backend: recovery without resource leaks.

The thread-backend chaos matrix (test_chaos.py) proves the recovery
*logic*; this suite proves the same plans hold when ranks are real OS
processes talking over shared-memory rings, with checkpoints flowing
through the file store the forked ranks share with the parent.  That every
kill/restart cycle cleans up after itself — no orphan rank processes, no
leaked ``/dev/shm`` segments — is asserted after every test by
``conftest.py``'s leak fixture.
"""

import numpy as np
import pytest

from repro.graphs.rmat import er
from repro.matching.mcm_dist import run_mcm_dist
from repro.matching.validate import cardinality, is_valid_matching
from repro.runtime import FaultPlan, FileCheckpointStore

SEEDS = [0, 1]
PLANS = {
    "crash": "crash:rank=any,at=phase:every",
    "transient": "transient:p=0.03",
    "delay": "delay:p=0.2",
    "correlated": "crash:group=row,at=phase:2",
    "correlated-col": "crash:group=col,at=phase:1",
}


@pytest.fixture(scope="module")
def graph():
    return er(scale=6, seed=42, edgefactor=8)


@pytest.fixture(scope="module")
def baseline(graph):
    mate_r, mate_c, _ = run_mcm_dist(graph, 2, 2)
    return mate_r, mate_c


@pytest.mark.parametrize("kind", sorted(PLANS))
@pytest.mark.parametrize("seed", SEEDS)
def test_process_backend_chaos_recovers_without_leaks(
    graph, baseline, tmp_path, kind, seed
):
    plan = FaultPlan.parse(PLANS[kind], seed=seed)
    mate_r, mate_c, stats = run_mcm_dist(
        graph, 2, 2,
        faults=plan,
        checkpoint_store=FileCheckpointStore(str(tmp_path)),
        max_restarts=30,
        backend="process",
    )
    assert cardinality(mate_r) == cardinality(baseline[0])
    from repro.sparse import CSC
    assert is_valid_matching(CSC.from_coo(graph), mate_r, mate_c)
    if "crash" in PLANS[kind]:
        assert stats.restarts >= 1
        assert stats.checkpoint_words > 0
    else:
        assert stats.restarts == 0
        # non-crash adversity never perturbs the matching itself
        assert np.array_equal(mate_r, baseline[0])
        assert np.array_equal(mate_c, baseline[1])


def test_process_backend_correlated_crash_matches_thread_backend(graph, tmp_path):
    """One correlated-crash run, both transports: identical recovery
    trajectory, mates, and per-phase ledger of the surviving attempt."""
    results = {}
    for backend in ("thread", "process"):
        plan = FaultPlan.parse("crash:group=row,at=phase:2", seed=3)
        mate_r, _, stats = run_mcm_dist(
            graph, 2, 2,
            faults=plan,
            checkpoint_store=FileCheckpointStore(str(tmp_path / backend)),
            max_restarts=30,
            backend=backend,
            init="none",
        )
        results[backend] = (
            mate_r, stats.restarts, stats.restart_spans, stats.phase_ledger,
        )
        by_alg = stats.comm_by_alg.values()
        totals = tuple(sum(d[k] for d in by_alg) for k in ("steps", "words"))
        last = stats.phase_ledger[max(stats.phase_ledger)]
        assert last[0] <= totals[0] and last[1] <= totals[1]
    t, p = results["thread"], results["process"]
    assert np.array_equal(t[0], p[0])
    assert t[1:] == p[1:]
