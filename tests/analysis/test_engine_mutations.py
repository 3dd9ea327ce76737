"""Seeded mutations of the real engine sources: why each lint family stays.

Each row rewrites one anchor in an engine source file *textually* and lints
the result with :func:`lint_source` — the mutated code is never executed.
A rule family earns its place in ``repro/analysis`` by flagging at least
one row here (the code audit's decision rule: a family that no engine
mutation trips is deleted), so the evidence follows the engines instead of
living only in ``examples/buggy_spmd.py``.  An anchor that no longer occurs
exactly once fails its row by name: re-seed the mutation against the new
engine text rather than deleting the row.

Known limits (mutations the linter still misses) are listed in DESIGN §12.
"""

import json
from pathlib import Path

import pytest

from repro.analysis import lint_source
from repro.analysis.suppress import noqa_map

SRC = Path(__file__).resolve().parents[2] / "src" / "repro"

SAVE_CHECKPOINT = """\
    if grid.comm.rank == 0:
        store.save(ck)
    grid.comm.barrier()
"""

#: (row id, source file, anchor text, replacement, codes the lint must report)
MUTATIONS = [
    ("checkpoint-barrier-under-rank-test", "matching/job.py",
     SAVE_CHECKPOINT,
     "    if grid.comm.rank == 0:\n        store.save(ck)\n        grid.comm.barrier()\n",
     {"SPMD101"}),
    ("scatter-and-barrier-swapped-on-root", "distmat/spmat.py",
     "    nrows, ncols, nnz, rows, cols, *mine = comm.scatter(payloads, root=root)\n",
     "    if comm.rank == root:\n"
     "        nrows, ncols, nnz, rows, cols, *mine = comm.scatter(payloads, root=root)\n"
     "        comm.barrier()\n"
     "    else:\n"
     "        comm.barrier()\n"
     "        nrows, ncols, nnz, rows, cols, *mine = comm.scatter(payloads, root=root)\n",
     {"SPMD101"}),
    ("eps-phase-loop-over-a-set", "matching/mwm_dist.py",
     "    while delta is not None:\n",
     "    for delta in set(ladder):\n",
     {"SPMD601", "SPMD603"}),
    ("hop-as-sends-over-a-set", "distmat/ops.py",
     "    return _gathered(comm.alltoallv(frames))\n",
     "    for r in set(legs[0][0].tolist()):\n"
     "        comm.send(r, frames[r])\n",
     {"SPMD601"}),
    ("unseeded-shuffle-of-start-rows", "matching/mcm_dist.py",
     "    rows = np.asarray(start_rows, np.int64)\n",
     "    np.random.shuffle(start_rows)\n    rows = np.asarray(start_rows, np.int64)\n",
     {"SPMD401"}),
    ("clock-in-proposal-tie-break", "matching/mcm_dist.py",
     "        key += A.col_lo\n",
     "        key += A.col_lo + time.time_ns() % 2\n",
     {"SPMD602"}),
    ("module-cache-written-by-rank-code", "matching/mcm_dist.py",
     "    stats = DistStats()\n",
     "    global _LAST_STATS\n    stats = _LAST_STATS = DistStats()\n",
     {"SPMD701"}),
    ("lambda-bcast-payload", "matching/mwm_dist.py",
     "comm.bcast(header, root=0)",
     "comm.bcast(lambda: header, root=0)()",
     {"SPMD702"}),
    # the two blind spots: the engines' own rank idiom is ``grid.i`` /
    # ``grid.j``, and every engine starts through ``job.launch``
    ("checkpoint-barrier-under-grid-coordinate", "matching/job.py",
     SAVE_CHECKPOINT,
     "    if grid.i == 0:\n        store.save(ck)\n        grid.comm.barrier()\n",
     {"SPMD101"}),
    ("closure-handed-to-launch", "matching/mcm_dist.py",
     "    mate_r, mate_c, stats = launch(\n        mcm_dist_spmd, (coo,), pr, pc,\n",
     "    def main(comm, *args, **kwargs):\n"
     "        return mcm_dist_spmd(comm, coo if comm.rank == 0 else None, *args, **kwargs)\n"
     "\n"
     "    mate_r, mate_c, stats = launch(\n        main, (), pr, pc,\n",
     {"SPMD703"}),
]


@pytest.mark.parametrize("rel", sorted({m[1] for m in MUTATIONS}))
def test_unmutated_engine_source_is_clean(rel):
    assert lint_source((SRC / rel).read_text(), rel) == []


def test_engine_sources_are_clean_without_suppressions():
    """Clean on their own merit: no ``repro: noqa`` comment in an engine
    source and no baseline entry anywhere under ``src/``."""
    baseline = json.loads((SRC.parents[1] / ".repro-lint-baseline.json").read_text())
    assert not [f for f in baseline["findings"] if f["path"].startswith("src/")]
    for rel in sorted({m[1] for m in MUTATIONS}):
        assert noqa_map((SRC / rel).read_text()) == {}, rel


@pytest.mark.parametrize(
    "rel, anchor, replacement, expected",
    [m[1:] for m in MUTATIONS], ids=[m[0] for m in MUTATIONS],
)
def test_mutation_is_flagged(rel, anchor, replacement, expected):
    source = (SRC / rel).read_text()
    assert source.count(anchor) == 1, f"anchor occurs {source.count(anchor)}x in {rel}"
    got = {f.code for f in lint_source(source.replace(anchor, replacement), rel)}
    assert got == expected


def test_every_rule_family_has_a_row():
    from repro.analysis import RULES

    families = {code[:5] for code in RULES} - {"SPMD0"}
    assert families == {code[:5] for m in MUTATIONS for code in m[4]}
