"""Command-line interface."""

import numpy as np
import pytest

from repro.cli import main

from .helpers import coo_from_edges, write_mm


def test_match_rmat(capsys):
    assert main(["match", "--rmat", "er:8", "--certify"]) == 0
    out = capsys.readouterr().out
    assert "maximum" in out
    assert "VERIFIED maximum" in out


def test_match_suite_input(capsys):
    assert main(["match", "--suite", "amazon-2008", "--target-nnz", "5000"]) == 0
    assert "graph" in capsys.readouterr().out


def test_match_mtx_and_output(tmp_path, capsys):
    path = tmp_path / "g.mtx"
    write_mm(coo_from_edges(3, 3, [(0, 0), (1, 1), (2, 2), (0, 1)]), path)
    out_npz = tmp_path / "mates.npz"
    assert main(["match", "--mtx", str(path), "--out", str(out_npz)]) == 0
    data = np.load(out_npz)
    assert (data["mate_r"] != -1).sum() == 3


def test_match_requires_exactly_one_input():
    with pytest.raises(SystemExit):
        main(["match"])
    with pytest.raises(SystemExit):
        main(["match", "--rmat", "er:6", "--suite", "road_usa"])


def test_match_rejects_bad_rmat_spec():
    with pytest.raises(SystemExit):
        main(["match", "--rmat", "banana"])


def test_match_direction_and_noprune(capsys):
    """``--no-prune`` still solves; ``--direction`` belongs to ``spmd`` only
    (the serial engine's Step 1 is always top-down)."""
    assert main(["match", "--rmat", "er:8", "--no-prune", "--certify"]) == 0
    assert "VERIFIED maximum" in capsys.readouterr().out
    with pytest.raises(SystemExit) as exc:
        main(["match", "--rmat", "er:8", "--direction", "auto"])
    assert exc.value.code == 2


def test_suite_listing(capsys):
    assert main(["suite"]) == 0
    out = capsys.readouterr().out
    assert "road_usa" in out and "nlpkkt200" in out


def test_scaling_study(capsys):
    assert main([
        "scaling", "--rmat", "er:8", "--cores", "24,108", "--breakdown",
    ]) == 0
    out = capsys.readouterr().out
    assert "speedup" in out and "SpMV" in out


def test_scaling_rejects_cores_below_threads():
    """A core count below ``--threads`` fits no process: a one-line exit
    naming both numbers, not a traceback."""
    with pytest.raises(SystemExit) as exc:
        main(["scaling", "--rmat", "er:6", "--cores", "4,16"])
    assert str(exc.value) == (
        "--cores 4 is below --threads 12: a process needs one core per thread")


def test_spmd_run(capsys):
    assert main(["spmd", "--rmat", "er:7", "--pr", "2", "--pc", "2"]) == 0
    out = capsys.readouterr().out
    assert "grid 2x2" in out


def test_spmd_verify_reports_checked_counts(capsys):
    assert main(["spmd", "--rmat", "er:7", "--pr", "2", "--pc", "2", "--verify"]) == 0
    out = capsys.readouterr().out
    assert "verification: PASSED" in out
    assert "collective entries cross-checked" in out


def test_spmd_timeout_flag(capsys):
    assert main(["spmd", "--rmat", "er:6", "--pr", "2", "--pc", "2",
                 "--timeout", "30"]) == 0
    assert "matched" in capsys.readouterr().out


def test_spmd_weighted_run_reports_its_certificate(tmp_path, capsys):
    import json

    path = tmp_path / "stats.json"
    assert main(["spmd", "--rmat", "er:6", "--pr", "2", "--pc", "2", "--objective",
                 "weight", "--epsilon", "0.05", "--stats-json", str(path)]) == 0
    assert "certified W/(D/2) = " in capsys.readouterr().out
    stats = json.loads(path.read_text())
    assert stats["certified_ratio"] >= 1 - 0.05
    assert stats["dual_bound"] >= 2 * stats["matching_weight"] > 0


def test_spmd_direction_is_auto_or_topdown(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["spmd", "--rmat", "er:6", "--direction", "bottomup"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "'auto'" in err and "'topdown'" in err


def test_spmd_stats_json_dump(tmp_path, capsys):
    import json

    path = tmp_path / "stats.json"
    assert main(["spmd", "--rmat", "er:6", "--pr", "2", "--pc", "2",
                 "--direction", "auto", "--stats-json", str(path)]) == 0
    assert f"stats written to {path}" in capsys.readouterr().out
    stats = json.loads(path.read_text())
    assert stats["grid"] == {"pr": 2, "pc": 2}
    assert stats["cardinality"] == stats["final_cardinality"] > 0
    assert stats["phases"] >= 1
    words = sum(d["words"] for d in stats["comm_by_alg"].values())
    assert words >= stats["expand_words"] + stats["fold_words"] > 0
    # the greedy initializer's edge reads, and the serial tail's, are
    # reported beside the BFS's
    assert stats["init_edges"] > 0
    assert stats["edges_examined"] >= 4 * stats["tail_edges"]
    assert stats["phases"] > stats["tail_phases"] >= 0
    # the per-algorithm collective counters made it through serialization
    by_alg = stats["comm_by_alg"]
    assert any(key.startswith("allgather:") for key in by_alg)
    assert any(key.startswith("alltoall:") for key in by_alg)
    for counters in by_alg.values():
        assert set(counters) == {"calls", "messages", "words", "steps"}
        assert counters["calls"] >= 1


@pytest.mark.parametrize("init", ["greedy", "none"])
def test_spmd_init_reaches_the_engine_unchanged(init, tmp_path, capsys):
    """The initializer named is the one that runs (its span is in the
    trace; ``none`` runs no initializer)."""
    from repro.runtime.trace import DistTrace

    trace_path = tmp_path / "out.json"
    assert main(["spmd", "--rmat", "er:6", "--pr", "2", "--pc", "2", "--init", init,
                 "--trace", str(trace_path), "--trace-clock", "ticks"]) == 0
    assert "matched" in capsys.readouterr().out
    inits = {sp.name for sp in DistTrace.load(str(trace_path)).all_spans()
             if sp.name.startswith("init:")}
    assert inits == (set() if init == "none" else {f"init:{init}"})


def test_spmd_init_is_greedy_or_none(capsys):
    """The degree-keyed initializers are ``match`` / ``scaling``'s only."""
    with pytest.raises(SystemExit) as exc:
        main(["spmd", "--rmat", "er:6", "--init", "karp-sipser"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "'greedy'" in err and "'none'" in err


def test_spmd_trace_and_trace_report(tmp_path, capsys):
    import json

    from repro.runtime.trace import DistTrace

    trace_path = tmp_path / "out.json"
    stats_path = tmp_path / "stats.json"
    assert main(["spmd", "--rmat", "er:7", "--pr", "2", "--pc", "2",
                 "--trace", str(trace_path), "--trace-clock", "ticks",
                 "--stats-json", str(stats_path)]) == 0
    out = capsys.readouterr().out
    assert f"trace written to {trace_path}" in out

    # Perfetto-loadable: valid JSON with trace events, and the traced
    # per-op:alg word totals equal the stats' collective counters exactly
    doc = json.loads(trace_path.read_text())
    assert doc["traceEvents"]
    trace = DistTrace.from_chrome(doc)
    by_alg = json.loads(stats_path.read_text())["comm_by_alg"]
    traced = trace.comm_words_by_key()
    assert set(traced) == set(by_alg)
    for key, counters in by_alg.items():
        assert traced[key] == counters["words"], key

    assert main(["trace-report", str(trace_path), "--top", "3"]) == 0
    report = capsys.readouterr().out
    assert "critical path" in report
    assert "phase 1" in report  # dominant span named per phase
    assert "top spans by self time:" in report

    assert main(["trace-report", str(trace_path), "--format", "json"]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["nranks"] == 4
    assert all(ph["dominant"] for ph in rep["phases"])


def test_spmd_chaos_trace_exports_restart_spans(tmp_path, capsys):
    import json

    trace_path = tmp_path / "chaos.json"
    assert main(["spmd", "--rmat", "er:6", "--pr", "2", "--pc", "2",
                 "--chaos", "1", "--max-restarts", "20",
                 "--trace", str(trace_path), "--trace-clock", "ticks"]) == 0
    doc = json.loads(trace_path.read_text())
    names = {ev["name"] for ev in doc["traceEvents"] if ev.get("cat") == "fault"}
    assert "restart" in names
    assert main(["trace-report", str(trace_path)]) == 0
    assert "restart(s)" in capsys.readouterr().out


def test_spmd_chaos_recovers_and_reports(capsys):
    assert main(["spmd", "--rmat", "er:6", "--pr", "2", "--pc", "2",
                 "--chaos", "1"]) == 0
    out = capsys.readouterr().out
    assert "chaos seed 1" in out
    assert "restart(s)" in out and "checkpoint words" in out
    assert "matched" in out


def test_spmd_chaos_matches_fault_free_cardinality(capsys):
    assert main(["spmd", "--rmat", "er:6", "--pr", "2", "--pc", "2"]) == 0
    plain = capsys.readouterr().out
    assert main(["spmd", "--rmat", "er:6", "--pr", "2", "--pc", "2",
                 "--chaos", "3",
                 "--chaos-plan", "crash:rank=any,at=phase:every;delay:p=0.2",
                 "--max-restarts", "20"]) == 0
    chaos = capsys.readouterr().out
    # same recovered cardinality (phase/iteration counts differ: the last
    # successful attempt resumed from a checkpoint)
    import re

    card = lambda s: re.search(r"matched ([\d,]+)", s).group(1)  # noqa: E731
    assert card(chaos) == card(plain)


def test_spmd_chaos_with_checkpoint_dir(tmp_path, capsys):
    ckdir = tmp_path / "cks"
    assert main(["spmd", "--rmat", "er:6", "--pr", "2", "--pc", "2",
                 "--chaos", "0",
                 "--checkpoint-dir", str(ckdir), "--max-restarts", "20"]) == 0
    assert any(ckdir.glob("ck_phase*.npz"))  # snapshots persisted to disk


def test_spmd_chaos_rejects_bad_plan():
    with pytest.raises(ValueError):
        main(["spmd", "--rmat", "er:6", "--chaos", "0",
              "--chaos-plan", "explode:p=1"])


def test_spmd_scenario_rejects_an_empty_request_stream(capsys):
    assert main(["spmd", "--scenario", "baseline", "--scenario-requests", "0"]) == 2
    assert "requests=0" in capsys.readouterr().out
