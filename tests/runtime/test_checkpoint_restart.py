"""Checkpoint stores and the self-healing MCM-DIST recovery driver."""

import numpy as np
import pytest

from repro.matching.mcm_dist import run_mcm_dist
from repro.matching.validate import cardinality, is_valid_matching, verify_maximum
from repro.runtime import (
    Checkpoint,
    CheckpointStore,
    FaultPlan,
    FileCheckpointStore,
    RankKilledError,
)
from repro.sparse import COO, CSC


def random_coo(n1, n2, m, seed):
    rng = np.random.default_rng(seed)
    return COO(n1, n2, rng.integers(0, n1, m), rng.integers(0, n2, m))


# -- stores ------------------------------------------------------------------

def _ck(phase, n=6):
    return Checkpoint(
        phase=phase,
        mate_row=np.arange(n, dtype=np.int64),
        mate_col=np.arange(n, dtype=np.int64),
    )


def test_memory_store_keeps_latest_and_counts_words():
    store = CheckpointStore()
    assert store.latest() is None
    store.save(_ck(1))
    store.save(_ck(3))
    assert store.latest().phase == 3
    store.save(_ck(2))  # stale snapshot never rolls the store backwards
    assert store.latest().phase == 3
    assert store.saves == 2
    # two header words and each mate vector at its wire width: 0..5 fits a
    # byte a mate, one word a vector (2 * (6 + 6 + 2) at 8 bytes a mate)
    assert store.words_written == 2 * (1 + 1 + 2)


def test_file_store_round_trips_and_survives_new_instance(tmp_path):
    d = str(tmp_path / "cks")
    store = FileCheckpointStore(d)
    store.save(_ck(1))
    store.save(_ck(2))
    # a fresh store instance (fresh "process") sees the latest snapshot
    again = FileCheckpointStore(d)
    ck = again.latest()
    assert ck.phase == 2
    assert np.array_equal(ck.mate_row, np.arange(6))
    assert np.array_equal(ck.mate_col, np.arange(6))


def test_file_store_ignores_leftover_tmp_files(tmp_path):
    d = str(tmp_path / "cks")
    store = FileCheckpointStore(d)
    store.save(_ck(4))
    # a crash mid-save leaves only a .tmp file, never a truncated .npz
    (tmp_path / "cks" / "ck_phase000009.npz.tmp").write_bytes(b"garbage")
    assert store.latest().phase == 4


def test_checkpoint_words_property():
    # 10 one-byte mates a vector: two words each, and two header words
    # (22 at 8 bytes a mate)
    assert _ck(1, n=10).words == 6


@pytest.mark.parametrize("kind", ["memory", "file"])
def test_stores_hold_int64_arrays_at_their_wire_width(kind, tmp_path):
    """What a store holds is what ``Checkpoint.words`` counts: every
    ``int64`` array at :func:`~repro.runtime.pack.wire_dtype`'s width.
    ``latest()`` hands the ``int64`` arrays back; a float array is kept
    as it is."""
    store = CheckpointStore() if kind == "memory" else FileCheckpointStore(str(tmp_path))
    mates = np.array([-1, 0, 300, 70_000], dtype=np.int64)
    prices = np.array([0.5, 1.25])
    ck = Checkpoint(1, mates, mates[::-1], {"prices": prices, "tail": np.array(1)})
    store.save(ck)
    if kind == "memory":
        held = store._latest
    else:
        with np.load(str(tmp_path / "ck_phase000001.npz")) as data:
            held = Checkpoint(1, data["mate_row"], data["mate_col"],
                              {"prices": data["aux_prices"], "tail": data["aux_tail"]})
    assert held.mate_row.dtype == held.mate_col.dtype == np.int32
    assert held.aux["tail"].dtype == np.uint8
    assert held.aux["prices"].dtype == np.float64
    # 2 header words, 2 words a mate vector, 2 of prices, 1 for the mark
    assert store.words_written == ck.words == 2 + 2 + 2 + 2 + 1
    back = store.latest()
    for got, sent in zip((back.mate_row, back.mate_col, *back.aux.values()),
                         (ck.mate_row, ck.mate_col, *ck.aux.values())):
        assert got.dtype == sent.dtype
        np.testing.assert_array_equal(got, sent)


# -- resilient driver --------------------------------------------------------

def test_resilient_without_faults_matches_plain_run():
    coo = random_coo(40, 45, 260, 7)
    plain = run_mcm_dist(coo, 2, 2)
    mate_r, mate_c, stats = run_mcm_dist(coo, 2, 2, max_restarts=3)
    assert np.array_equal(mate_r, plain[0])
    assert np.array_equal(mate_c, plain[1])
    assert stats.restarts == 0
    assert stats.phases_replayed == 0
    assert stats.checkpoint_words > 0  # phase snapshots were written


def test_resilient_recovers_from_send_crash(no_handoff):
    coo = random_coo(40, 45, 260, 11)
    a = CSC.from_coo(coo)
    plain_card = cardinality(run_mcm_dist(coo, 2, 2)[0])
    plan = FaultPlan.parse("crash:rank=1,at=send:40", seed=0)
    mate_r, mate_c, stats = run_mcm_dist(coo, 2, 2, faults=plan, max_restarts=3)
    assert stats.restarts == 1
    assert cardinality(mate_r) == plain_card
    assert is_valid_matching(a, mate_r, mate_c)


def test_resilient_recovers_from_collective_crash():
    coo = random_coo(35, 35, 200, 3)
    plain_card = cardinality(run_mcm_dist(coo, 2, 2)[0])
    plan = FaultPlan.parse("crash:rank=2,at=collective:25", seed=0)
    mate_r, _, stats = run_mcm_dist(coo, 2, 2, faults=plan, max_restarts=3)
    assert stats.restarts == 1
    assert cardinality(mate_r) == plain_card


def test_resilient_gives_up_after_max_restarts():
    coo = random_coo(30, 30, 150, 5)
    # phase 1 crashes for EVERY rank spec occurrence; with 0 allowed
    # restarts the first death is fatal
    plan = FaultPlan.parse("crash:rank=0,at=collective:5", seed=0)
    with pytest.raises(RankKilledError):
        run_mcm_dist(coo, 2, 2, faults=plan, max_restarts=0)


def test_resilient_with_file_store(tmp_path):
    coo = random_coo(40, 40, 230, 13)
    plain_card = cardinality(run_mcm_dist(coo, 2, 2)[0])
    store = FileCheckpointStore(str(tmp_path / "cks"))
    plan = FaultPlan.parse("crash:rank=any,at=phase:every", seed=1)
    mate_r, _, stats = run_mcm_dist(
        coo, 2, 2, faults=plan, checkpoint_store=store, max_restarts=20
    )
    assert cardinality(mate_r) == plain_card
    assert stats.restarts >= 1
    assert store.latest() is not None  # snapshots really hit the disk
    assert stats.checkpoint_words == store.words_written


def test_resilient_sparse_checkpoint_cadence_replays_phases():
    """checkpoint_every=3 trades snapshot volume for replay: a crash in a
    later phase re-runs the phases since the last snapshot."""
    coo = random_coo(60, 60, 200, 17)  # sparse: needs several phases
    every = 3
    # dying on entering phase every + 2 loses phase every + 1, completed
    # after the last snapshot (phase every); entering every + 1 loses none
    crash = every + 2
    plain = run_mcm_dist(coo, 2, 2, init="none")
    plain_card = cardinality(plain[0])
    assert plain[2].phases >= crash
    plan = FaultPlan.parse(f"crash:rank=any,at=phase:{crash}", seed=2)
    mate_r, _, stats = run_mcm_dist(
        coo, 2, 2, init="none", faults=plan, checkpoint_every=every, max_restarts=5
    )
    assert cardinality(mate_r) == plain_card
    assert stats.restarts == 1
    assert stats.phases_replayed >= 1


def test_resilient_result_is_still_maximum():
    coo = random_coo(45, 50, 270, 23)
    a = CSC.from_coo(coo)
    plan = FaultPlan.parse(
        "crash:rank=any,at=phase:every;transient:p=0.02;delay:p=0.1", seed=4
    )
    mate_r, mate_c, stats = run_mcm_dist(
        coo, 2, 2, faults=plan, max_restarts=20
    )
    assert is_valid_matching(a, mate_r, mate_c)
    assert verify_maximum(a, mate_r, mate_c)
    assert stats.restarts >= 1


# -- concurrent multi-process writers ----------------------------------------

def _hammer_store(directory, worker, phases):
    import os
    store = FileCheckpointStore(directory)
    for phase in phases:
        n = 64
        store.save(Checkpoint(
            phase=phase,
            mate_row=np.full(n, worker, dtype=np.int64),
            mate_col=np.full(n, phase, dtype=np.int64),
        ))
    os._exit(0)  # skip interpreter teardown races in the fork child


def test_file_store_concurrent_process_writers(tmp_path):
    """Forked writers racing on overlapping phases must never tear a file
    or lose a counter update (the process backend's rank-0 writers plus a
    restarted incarnation all share one directory)."""
    import multiprocessing as mp

    directory = str(tmp_path)
    ctx = mp.get_context("fork")
    nworkers, nphases = 4, 12
    procs = [
        ctx.Process(target=_hammer_store,
                    args=(directory, w, list(range(nphases))))
        for w in range(nworkers)
    ]
    for p in procs:
        p.start()
    for p in procs:
        p.join(60)
        assert p.exitcode == 0

    store = FileCheckpointStore(directory)
    store.refresh_counters()
    assert store.saves == nworkers * nphases
    latest = store.latest()
    assert latest is not None and latest.phase == nphases - 1
    # every file must be a complete npz from exactly one writer
    for phase in range(nphases):
        ck_phase = np.load(str(tmp_path / f"ck_phase{phase:06d}.npz"))
        winner = ck_phase["mate_row"][0]
        assert (ck_phase["mate_row"] == winner).all()
        assert (ck_phase["mate_col"] == phase).all()
    # no temp droppings survive
    assert not [n for n in tmp_path.iterdir() if n.name.endswith(".tmp")]


def test_file_store_refresh_counters_single_process(tmp_path):
    store = FileCheckpointStore(str(tmp_path))
    store.save(_ck(0))
    store.save(_ck(1))
    other = FileCheckpointStore(str(tmp_path))
    assert other.saves == 0
    other.refresh_counters()
    assert other.saves == 2
    assert other.words_written == 2 * _ck(0).words
