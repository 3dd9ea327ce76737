#!/usr/bin/env python3
"""Self-test of the benchmark's declaration and plumbing (not its numbers).

    python3 benchmarks/e2e/selftest.py            # contract + --quick smoke
    python3 benchmarks/e2e/selftest.py --static   # contract only, < 1 s

Checks that ``BENCHMARK.json`` is what ``spec.py`` generates and meets the
driver's format limits, that ``spec.py`` and ``workloads.py`` name the same
workloads, and — by running ``run.py --quick`` — that every declared metric
is reported for every workload, nothing undeclared is, and no solve fails.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
import time
from pathlib import Path

import spec

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}\Z")
#: --quick takes ~40 s when the box is quiet (its budget is < 60 s) and up to
#: ~75 s in the half-hours when the box runs at half speed; beyond this cap
#: the smoke itself has grown, which is what the check is for
QUICK_LIMIT_S = 120.0


def check(ok: bool, message: str) -> None:
    if not ok:
        sys.exit(f"selftest FAILED: {message}")


def static_checks() -> None:
    path = spec.ROOT / "BENCHMARK.json"
    text = path.read_text()
    doc = json.loads(text)
    check(doc == spec.benchmark_json(),
          "BENCHMARK.json differs from spec.py; run `python3 benchmarks/e2e/spec.py --write`")
    check(len(text.encode()) <= 64 * 1024, "BENCHMARK.json exceeds 64 KiB")
    check(list(doc) == ["command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"],
          "BENCHMARK.json keys")
    check(2 <= len(doc["workloads"]) <= 8, "2 to 8 workloads")
    check(1 <= len(doc["end_to_end"]) <= 16 and 1 <= len(doc["per_layer"]) <= 128, "metric counts")
    check(isinstance(doc["run_seconds"], int) and 1 <= doc["run_seconds"] <= 60, "run_seconds")
    names = [m["name"] for m in doc["workloads"] + doc["end_to_end"] + doc["per_layer"]]
    check(len(set(names)) == len(names), "a name is used twice")
    for name in names:
        check(bool(NAME.match(name)), f"bad name {name!r}")
    for m in doc["end_to_end"] + doc["per_layer"]:
        check(bool(UNIT.match(m["unit"])), f"bad unit {m['unit']!r} on {m['name']}")
        check(m["better"] in ("lower", "higher"), f"bad better on {m['name']}")
    for m in doc["end_to_end"]:
        check(0 < m["bound"] <= 0.25, f"bound of {m['name']} outside (0, 0.25]")
    setup = [m for m in doc["end_to_end"] if m["name"] == "setup_s"]
    check(bool(setup) and setup[0]["unit"] == "s" and setup[0]["better"] == "lower",
          "setup_s (s, lower) must be an end-to-end metric")
    check(setup[0]["bound"] == max(m["bound"] for m in doc["end_to_end"]),
          "setup_s must carry the largest bound")
    for wl in doc["workloads"]:
        check(len(wl["why"]) <= 200 and "\n" not in wl["why"], f"why of {wl['name']} too long")
    for part in doc["command"] + doc["paths"]:
        check(not part.startswith("/") and ".." not in part.split("/"), f"path {part!r} leaves the repo")

    import run

    run.load_program()
    from workloads import WORKLOADS

    check(list(WORKLOADS) == list(spec.WORKLOADS), "spec.py and workloads.py name different workloads")


def quick_smoke() -> None:
    t0 = time.monotonic()
    proc = subprocess.run([sys.executable, str(Path(__file__).with_name("run.py")), "--quick"],
                          stdout=subprocess.PIPE, text=True)
    took = time.monotonic() - t0
    sys.stdout.write(proc.stdout)
    check(proc.returncode == 0, f"run.py --quick exited {proc.returncode}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    check(list(result) == ["correct", "attempted", "failed", "metrics"], "result object keys")
    check(result["correct"] is True and result["failed"] == 0, f"{result['failed']} operations failed")
    declared = {f"{w}.{m}" for w in spec.WORKLOADS for m in spec.UNITS}
    reported = set(result["metrics"])
    check(declared == reported,
          f"declared but not reported: {sorted(declared - reported)}; "
          f"reported but not declared: {sorted(reported - declared)}")
    for key, m in result["metrics"].items():
        check(m["unit"] == spec.UNITS[key.split(".", 1)[1]], f"unit of {key}")
        check(isinstance(m["value"], (int, float)) and m["value"] == m["value"], f"value of {key}")
    for w in spec.WORKLOADS:
        for metric in spec.E2E_UNITS:
            check(result["metrics"][f"{w}.{metric}"]["value"] > 0, f"{w}.{metric} is not positive")
    check(took < QUICK_LIMIT_S, f"run.py --quick took {took:.0f} s, limit {QUICK_LIMIT_S:.0f} s")
    print(f"quick smoke: {len(reported)} metrics, {result['attempted']} operations, {took:.0f} s")


if __name__ == "__main__":
    static_checks()
    if sys.argv[1:] != ["--static"]:
        quick_smoke()
    print("selftest OK")
