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
    return Checkpoint(phase=phase, mate=np.arange(n, dtype=np.int64))


def test_memory_store_keeps_latest_and_counts_words():
    store = CheckpointStore()
    assert store.latest() is None
    store.save(_ck(1))
    store.save(_ck(3))
    assert store.latest().phase == 3
    store.save(_ck(2))  # stale snapshot never rolls the store backwards
    assert store.latest().phase == 3
    assert store.saves == 2
    # two header words and the mate vector at its wire width: 0..5 fits a
    # byte a mate, one word (2 * (6 + 2) at 8 bytes a mate; 2 * (1 + 1 + 2)
    # while a snapshot held both mate vectors)
    assert store.words_written == 2 * (1 + 2)


@pytest.mark.parametrize("kind", ["memory", "file"])
def test_a_backward_save_is_ignored_by_every_store(kind, tmp_path):
    """One write rule for both stores: a snapshot below the latest phase
    neither rolls the store back nor counts, so ``checkpoint_words`` does
    not depend on the store a job was given."""
    store = CheckpointStore() if kind == "memory" else FileCheckpointStore(str(tmp_path))
    store.save(_ck(2))
    store.save(_ck(1, n=9))
    store.refresh_counters()
    assert store.latest().phase == 2
    assert (store.saves, store.words_written) == (1, _ck(2).words)
    assert not (tmp_path / "ck_phase000001.npz").exists()


def test_file_store_round_trips_and_survives_new_instance(tmp_path):
    d = str(tmp_path / "cks")
    store = FileCheckpointStore(d)
    store.save(_ck(1))
    store.save(_ck(2))
    # a fresh store instance (fresh "process") sees the latest snapshot
    again = FileCheckpointStore(d)
    ck = again.latest()
    assert ck.phase == 2
    assert np.array_equal(ck.mate, np.arange(6))


def test_file_store_ignores_leftover_tmp_files(tmp_path):
    d = str(tmp_path / "cks")
    store = FileCheckpointStore(d)
    store.save(_ck(4))
    # a crash mid-save leaves only a .tmp file, never a truncated .npz
    (tmp_path / "cks" / "ck_phase000009.npz.tmp").write_bytes(b"garbage")
    assert store.latest().phase == 4


def test_checkpoint_words_property():
    # 10 one-byte mates: two words, and two header words (12 at 8 bytes a
    # mate; 6 while a snapshot held both mate vectors)
    assert _ck(1, n=10).words == 4


@pytest.mark.parametrize("kind", ["memory", "file"])
def test_stores_hold_int64_arrays_at_their_wire_width(kind, tmp_path):
    """What a store holds is what ``Checkpoint.words`` counts: every
    ``int64`` array at :func:`~repro.runtime.pack.wire_dtype`'s width.
    ``latest()`` hands the ``int64`` arrays back; a float array is kept
    as it is."""
    store = CheckpointStore() if kind == "memory" else FileCheckpointStore(str(tmp_path))
    mates = np.array([-1, 0, 300, 70_000], dtype=np.int64)
    prices = np.array([0.5, 1.25])
    ck = Checkpoint(1, mates, {"prices": prices, "tail": np.array(1)})
    store.save(ck)
    if kind == "memory":
        held = store._latest
    else:
        with np.load(str(tmp_path / "ck_phase000001.npz")) as data:
            held = Checkpoint(1, data["mate"],
                              {"prices": data["aux_prices"], "tail": data["aux_tail"]})
    assert held.mate.dtype == np.int32
    assert held.aux["tail"].dtype == np.uint8
    assert held.aux["prices"].dtype == np.float64
    # 2 header words, 2 words of mates, 2 of prices, 1 for the mark
    assert store.words_written == ck.words == 2 + 2 + 2 + 1
    back = store.latest()
    for got, sent in zip((back.mate, *back.aux.values()), (ck.mate, *ck.aux.values())):
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
    """Save ``phases`` in order, each mate the (worker, phase) pair; exit
    with the count of saves the store kept (it ignores one below the
    latest phase)."""
    import os
    store = FileCheckpointStore(directory)
    for phase in phases:
        store.save(Checkpoint(phase=phase, mate=np.full(64, 100 * worker + phase)))
    os._exit(store.saves)  # skip interpreter teardown races in the fork child


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
    kept = 0
    for p in procs:
        p.join(60)
        assert 0 <= p.exitcode <= nphases
        kept += p.exitcode

    store = FileCheckpointStore(directory)
    store.refresh_counters()
    assert store.saves == kept >= nphases
    latest = store.latest()
    assert latest is not None and latest.phase == nphases - 1
    # every phase was written — the first writer past a phase wrote it —
    # and every file is a complete npz from exactly one writer
    for phase in range(nphases):
        mate = np.load(str(tmp_path / f"ck_phase{phase:06d}.npz"))["mate"]
        assert (mate == mate[0]).all() and mate[0] % 100 == phase
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
