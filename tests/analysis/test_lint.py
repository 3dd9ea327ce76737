"""Static SPMD linter: rule catalogue, formatting, and the seeded fixture."""

import json
from pathlib import Path

import pytest

from repro.analysis import Finding, format_json, format_text, lint_file, lint_paths, lint_source

REPO_ROOT = Path(__file__).resolve().parents[2]
FIXTURE = REPO_ROOT / "examples" / "buggy_spmd.py"


def codes(findings):
    return [f.code for f in findings]


# ---------------------------------------------------------------- SPMD101/102


def test_divergent_collective_in_rank_branch_flagged():
    src = """
def main(comm):
    if comm.rank == 0:
        comm.allreduce(1)
"""
    fs = lint_source(src)
    assert codes(fs) == ["SPMD101"]
    assert fs[0].function == "main"
    assert "allreduce" in fs[0].message


def test_mismatched_collective_sequences_across_branches_flagged():
    src = """
def main(comm):
    if comm.rank % 2:
        comm.bcast(0, root=0)
        comm.barrier()
    else:
        comm.barrier()
        comm.bcast(0, root=0)
"""
    assert codes(lint_source(src)) == ["SPMD101"]


def test_symmetric_branches_are_clean():
    src = """
def main(comm):
    if comm.rank == 0:
        payload = comm.bcast(local, root=0)
    else:
        payload = comm.bcast(None, root=0)
    return payload
"""
    assert lint_source(src) == []


def test_rank_taint_propagates_through_assignment():
    src = """
def main(comm):
    me = comm.rank
    is_root = me == 0
    if is_root:
        comm.reduce(x, op=SUM, root=0)
"""
    assert codes(lint_source(src)) == ["SPMD101"]


def test_collective_in_rank_dependent_loop_flagged():
    src = """
def main(comm):
    for _ in range(comm.rank):
        comm.barrier()
"""
    assert codes(lint_source(src)) == ["SPMD102"]


def test_collective_in_uniform_loop_is_clean():
    src = """
def main(comm):
    for _ in range(10):
        comm.barrier()
"""
    assert lint_source(src) == []


def test_string_split_is_not_a_collective():
    src = """
def main(comm):
    parts = "a,b,c".split(",")
    if comm.rank == 0:
        print(parts)
"""
    assert lint_source(src) == []


# ----------------------------------------------------------- point-to-point


def test_small_user_tag_is_clean():
    src = """
def main(comm):
    comm.send(1, payload, tag=41)
    comm.recv(0, tag=41)
"""
    assert lint_source(src) == []


# ------------------------------------------------------------------- SPMD401


def test_unseeded_numpy_random_in_spmd_function_flagged():
    src = """
import numpy as np

def main(comm):
    np.random.shuffle(order)
"""
    assert codes(lint_source(src)) == ["SPMD401"]


def test_seeded_rng_is_clean():
    src = """
import numpy as np

def main(comm):
    rng = np.random.default_rng(comm.rank)
    rng.shuffle(order)
"""
    assert lint_source(src) == []


def test_non_spmd_function_may_use_random():
    src = """
import random

def shuffle_deck(deck):
    random.shuffle(deck)
"""
    assert lint_source(src) == []


# ------------------------------------------------------- files & aggregation


def test_syntax_error_becomes_spmd000_finding():
    fs = lint_source("def broken(:\n")
    assert codes(fs) == ["SPMD000"]


#: (code, function) of every seeded bug in the fixture file, in report
#: (line) order.  One fixture per rule; SPMD101 has two (direct + via
#: helper).  Kept in sync with the table in the fixture's docstring.
FIXTURE_BUGS = [
    ("SPMD101", "divergent_reduction"),
    ("SPMD401", "unseeded_shuffle"),
    ("SPMD101", "divergent_via_helper"),
    ("SPMD102", "rank_bounded_barriers"),
    ("SPMD601", "set_ordered_mates"),
    ("SPMD602", "clock_seeded_mates"),
    ("SPMD603", "set_ordered_sum"),
    ("SPMD701", "global_mate_cache"),
    ("SPMD702", "lambda_payload"),
    ("SPMD703", "closure_launcher"),
]


def test_fixture_reports_exactly_the_seeded_bugs():
    fs = lint_file(FIXTURE)
    assert [(f.code, f.function) for f in fs] == FIXTURE_BUGS
    for f in fs:
        assert f.path.endswith("buggy_spmd.py")
        assert f.line > 0 and f.col >= 0


def test_every_rule_has_a_fixture():
    from repro.analysis import RULES

    covered = {code for code, _ in FIXTURE_BUGS}
    assert covered == set(RULES) - {"SPMD000"}
    assert len(FIXTURE_BUGS) == 10 and len(covered) == 9


def test_source_tree_is_clean():
    assert lint_paths([str(REPO_ROOT / "src" / "repro")]) == []


def test_lint_paths_exclude_and_missing_target():
    examples = str(REPO_ROOT / "examples")
    with_bugs = lint_paths([examples])
    without = lint_paths([examples], exclude=[str(FIXTURE)])
    assert len(with_bugs) == len(FIXTURE_BUGS)
    assert without == []
    with pytest.raises(FileNotFoundError):
        lint_paths([str(REPO_ROOT / "no_such_dir")])


# --------------------------------------------------------------- formatting


def test_format_text_lists_location_code_and_summary():
    fs = lint_file(FIXTURE)
    text = format_text(fs)
    for f in fs:
        assert f"{f.line}:" in text and f.code in text
    assert f"{len(FIXTURE_BUGS)} finding(s)" in text


def test_format_text_clean():
    assert "no findings" in format_text([])


def test_format_json_round_trips():
    fs = lint_file(FIXTURE)
    payload = json.loads(format_json(fs))
    assert [e["code"] for e in payload] == codes(fs)
    assert all({"path", "line", "col", "code", "message"} <= set(e) for e in payload)


def test_findings_sort_by_location():
    a = Finding("b.py", 1, 0, "SPMD101", "m")
    b = Finding("a.py", 9, 0, "SPMD401", "m")
    c = Finding("a.py", 2, 0, "SPMD102", "m")
    from repro.analysis import sort_findings

    assert sort_findings([a, b, c]) == [c, b, a]


# ---------------------------------------------------------------------- CLI


def test_cli_lint_exit_codes_and_output(capsys):
    from repro.cli import main

    assert main(["lint", str(FIXTURE)]) == 1
    out = capsys.readouterr().out
    assert "SPMD101" in out and "SPMD102" in out and "SPMD401" in out

    assert main(["lint", str(REPO_ROOT / "src" / "repro")]) == 0
    assert "no findings" in capsys.readouterr().out


def test_cli_lint_json_format(capsys):
    from repro.cli import main

    assert main(["lint", str(FIXTURE), "--format", "json"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert len(payload) == len(FIXTURE_BUGS)


def test_cli_lint_missing_path_is_usage_error(capsys):
    from repro.cli import main

    assert main(["lint", str(REPO_ROOT / "nowhere.py")]) == 2
