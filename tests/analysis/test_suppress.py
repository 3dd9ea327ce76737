"""Suppression mechanics: inline ``# repro: noqa`` and baseline files."""

import json
import textwrap
from pathlib import Path

import pytest

from repro.analysis import lint_source, load_baseline, write_baseline
from repro.analysis.suppress import noqa_map

REPO_ROOT = Path(__file__).resolve().parents[2]

FLAGGED = textwrap.dedent("""
    def main(comm):
        if comm.rank == 0:
            comm.allreduce(1)
""")


def test_bare_noqa_suppresses_everything_on_the_line():
    src = FLAGGED.replace("comm.allreduce(1)",
                          "comm.allreduce(1)  # repro: noqa")
    assert lint_source(src) == []


def test_coded_noqa_suppresses_only_listed_codes():
    src = FLAGGED.replace("comm.allreduce(1)",
                          "comm.allreduce(1)  # repro: noqa[SPMD101]")
    assert lint_source(src) == []
    wrong_code = FLAGGED.replace("comm.allreduce(1)",
                                 "comm.allreduce(1)  # repro: noqa[SPMD401]")
    assert [f.code for f in lint_source(wrong_code)] == ["SPMD101"]


def test_noqa_only_applies_to_its_own_line():
    src = "# repro: noqa[SPMD101]\n" + FLAGGED
    assert [f.code for f in lint_source(src)] == ["SPMD101"]


def test_noqa_inside_a_string_literal_is_inert():
    src = FLAGGED.replace(
        "comm.allreduce(1)",
        'comm.allreduce("repro: noqa[SPMD101]")')
    assert [f.code for f in lint_source(src)] == ["SPMD101"]


def test_noqa_map_parses_codes_case_insensitively():
    m = noqa_map("x = 1  # repro: NOQA[spmd101, SPMD401]\n")
    assert m == {1: frozenset({"SPMD101", "SPMD401"})}


# ------------------------------------------------------------------ baseline


def test_baseline_filters_by_path_code_and_function(tmp_path):
    bl = tmp_path / "baseline.json"
    bl.write_text(json.dumps({"findings": [
        {"path": "pkg/mod.py", "code": "SPMD101", "function": "main",
         "justification": "known"},
    ]}))
    baseline = load_baseline(bl)
    fs = lint_source(FLAGGED, path="/abs/prefix/pkg/mod.py")
    assert baseline.filter(fs) == []
    # a different function name no longer matches
    other = lint_source(FLAGGED.replace("def main", "def other"),
                        path="/abs/prefix/pkg/mod.py")
    assert baseline.filter(other) == other


def test_baseline_does_not_match_unrelated_path_suffix(tmp_path):
    bl = tmp_path / "baseline.json"
    bl.write_text(json.dumps({"findings": [
        {"path": "mod.py", "code": "SPMD101", "function": "main"},
    ]}))
    baseline = load_baseline(bl)
    fs = lint_source(FLAGGED, path="notmod.py")
    assert baseline.filter(fs) == fs


def test_write_then_load_baseline_round_trips(tmp_path):
    fs = lint_source(FLAGGED, path="pkg/mod.py")
    bl = tmp_path / "baseline.json"
    write_baseline(bl, fs)
    assert load_baseline(bl).filter(fs) == []


def test_malformed_baseline_rejected(tmp_path):
    bl = tmp_path / "bad.json"
    bl.write_text(json.dumps({"findings": [{"code": "SPMD101"}]}))
    with pytest.raises(ValueError):
        load_baseline(bl)


# ------------------------------------------------- the committed self-gate


def test_committed_baseline_covers_the_whole_tree():
    """The CI gate: src + examples lint clean modulo the committed baseline,
    and every baseline entry carries a justification."""
    from repro.analysis import lint_paths

    baseline = load_baseline(REPO_ROOT / ".repro-lint-baseline.json")
    for entry in baseline.entries:
        assert entry.get("justification"), f"unjustified baseline entry {entry}"
    findings = lint_paths([str(REPO_ROOT / "src" / "repro"),
                           str(REPO_ROOT / "examples")])
    assert baseline.filter(findings) == []


def test_committed_baseline_has_no_stale_entries():
    """Every baseline entry still matches a real finding (no dead weight)."""
    from repro.analysis import lint_paths

    baseline = load_baseline(REPO_ROOT / ".repro-lint-baseline.json")
    findings = lint_paths([str(REPO_ROOT / "src" / "repro"),
                           str(REPO_ROOT / "examples")])
    matched = {(e["path"], e["code"], e["function"])
               for e in baseline.entries
               for f in findings if baseline.matches(f)
               if f.code == e["code"] and f.function == e.get("function", "")}
    assert len(baseline.entries) == 10
    for e in baseline.entries:
        key = (e["path"], e["code"], e["function"])
        assert key in matched, f"stale baseline entry: {e}"
