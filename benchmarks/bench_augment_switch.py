"""Ablation: level-parallel vs path-parallel augmentation and the k < 2p²
switch (Section IV-B's closing analysis).

Paper content (text, not a numbered figure): Algorithm 3 costs
h(6αp + 4βk/p) while Algorithm 4 costs (k/p)·3h(α+β); comparing latency
terms, path-parallel wins exactly when k < 2p².  This bench prices both
variants over a (k, p) sweep from synthetic path sets and verifies the
automatic switch picks the cheaper variant in (nearly) every cell.

Report only: the ENGINE's level step is no longer the paper's — a row
hop and one column hop on the √p-rank row/column communicators,
(pc−1) + (pr−1) latency steps (DESIGN "Phase anatomy") — so the ``engine
level`` columns price that step and show where the crossover *would* sit,
k ≈ ⅔·p(√p−1).
The SPMD engine no longer switches: it augments level-parallel in every
phase, its small-k phases handing off to the serial tail (ROADMAP item
20); the serial engine and costsim keep the rule.  The one price of a run
(``MachineSpec.price``, DESIGN §5) charges each one-sided op α+β, the
per-op cost ``path_cost`` uses below.  The sweep runs at EDISON's
constants; the words- and op-proportional terms come from the price, the
collective terms from :mod:`repro.perfmodel.collectives`.
"""

import numpy as np
import pytest

from repro.matching import choose_augment_mode
from repro.perfmodel import EDISON, collectives as C

from .common import emit

H = 8  # pair-steps per path (path length ~ 2H+1)


def _over_levels(k: int, per_level) -> float:
    """Sum ``per_level(live paths)`` over the H lockstep levels of k paths."""
    steps = np.full(k, H)
    return sum(per_level(int((steps > level).sum())) for level in range(H))


def level_cost(k: int, P: int) -> float:
    return _over_levels(k, lambda active: (
        6 * C.alltoallv(P, EDISON.alpha, EDISON.beta, 0.0, "bruck")
        + EDISON.price(1, words=4 * (-(-active // P))).beta_s
    ))


def engine_level_cost(k: int, P: int) -> float:
    """The engine's level step on a √P × √P grid: two pairwise all-to-alls
    on √P-rank communicators, each with a count word — a row hop of the
    ``mate_r`` write and the (column, row) pair, whose landing rank reads
    the old mate off its column replica, then a column hop of the pair and
    the next tip."""
    q = int(round(P ** 0.5))
    return _over_levels(k, lambda active: sum(
        C.alltoallv(q, EDISON.alpha, EDISON.beta, 1 + words * (-(-active // P)), "pairwise")
        for words in (4, 3)
    ))


def path_cost(k: int, P: int) -> float:
    """Algorithm 4: 3 one-sided ops per pair-step, ⌈k/P⌉ paths of H pair-steps
    a rank, and the closing fence."""
    ops = 3 * -(-k // P) * H
    return EDISON.price(1, rma_ops=ops).rma_s + C.barrier_dissemination(P, EDISON.alpha)


def run_sweep():
    rows = []
    for P in (4, 16, 64, 256):
        for k in (1, 8, 2 * P * P // 4, 2 * P * P, 8 * P * P, 64 * P * P):
            lv = level_cost(k, P)
            pp = path_cost(k, P)
            ev = engine_level_cost(k, P)
            rows.append({
                "P": P, "k": k,
                "level_s": lv, "path_s": pp,
                "cheaper": "path" if pp < lv else "level",
                "chosen": choose_augment_mode(k, P),
                "engine_level_s": ev,
                "engine_cheaper": "path" if pp < ev else "level",
            })
    return rows


def test_augment_switch_ablation(benchmark):
    rows = benchmark.pedantic(run_sweep, rounds=1, iterations=1)
    lines = [
        f"{'P':>5} {'k':>9} {'level (s)':>11} {'path (s)':>11} {'cheaper':>8} {'chosen':>7}"
        f" {'engine level (s)':>17} {'cheaper':>8}"
    ]
    for r in rows:
        lines.append(
            f"{r['P']:>5} {r['k']:>9} {r['level_s']:>11.3e} {r['path_s']:>11.3e} "
            f"{r['cheaper']:>8} {r['chosen']:>7} {r['engine_level_s']:>17.3e} "
            f"{r['engine_cheaper']:>8}"
        )
    lines.append("")
    lines.append("crossover k* (path-parallel cheaper below it), report only:")
    for P in sorted({r["P"] for r in rows}):
        q = int(round(P ** 0.5))
        lines.append(
            f"  P={P:>4}: paper rule 2p^2 = {2 * P * P:>7}   "
            f"engine level step 2p(sqrt(p)-1)/3 = {round(2 * P * (q - 1) / 3):>6}"
        )
    emit("augment_switch", "\n".join(lines))

    # tiny k: path-parallel must win at every P
    for r in rows:
        if r["k"] <= 8:
            assert r["cheaper"] == "path", r
        if r["k"] >= 64 * r["P"] ** 2:
            assert r["cheaper"] == "level", r
    # the k < 2p² rule agrees with the priced winner away from the boundary
    clear = [r for r in rows if r["k"] <= 8 or r["k"] >= 64 * r["P"] ** 2]
    agree = sum(1 for r in clear if r["chosen"] == r["cheaper"])
    assert agree == len(clear)


def test_augment_variants_real_timing(benchmark):
    """Wall-clock microbenchmark of the two (global-array) augmentation
    implementations on identical synthetic path sets."""
    from repro.matching import augment_level_parallel
    from repro.sparse.spvec import NULL

    rng = np.random.default_rng(0)
    n = 60_000
    pi_r = np.full(n, NULL, np.int64)
    mate_r = np.full(n, NULL, np.int64)
    mate_c = np.full(n, NULL, np.int64)
    path_c = np.full(n, NULL, np.int64)
    v = list(rng.permutation(n))
    while len(v) >= 4:
        c_root, r1, c1, r2 = v.pop(), v.pop(), v.pop(), v.pop()
        pi_r[r1] = c_root
        pi_r[r2] = c1
        mate_r[r1] = c1
        mate_c[c1] = r1
        path_c[c_root] = r2

    def run():
        augment_level_parallel(path_c, pi_r, mate_r.copy(), mate_c.copy())

    benchmark(run)
