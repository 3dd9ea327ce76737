"""``repro lint`` — the CLI face of the static SPMD analyzer.

Kept separate from :mod:`repro.cli` so the linter stays importable without
pulling in NumPy-heavy packages, and testable without argparse plumbing.
Exit status follows lint convention: 0 clean, 1 findings, 2 usage error.
"""

from __future__ import annotations

from pathlib import Path
from typing import Sequence

from .lint import lint_paths
from .report import format_json, format_text
from .suppress import load_baseline, write_baseline

FORMATS = ("text", "json")


def run_lint(
    paths: Sequence[str],
    exclude: Sequence[str] = (),
    fmt: str = "text",
    baseline: str | None = None,
    write_baseline_to: str | None = None,
    output: str | None = None,
) -> int:
    """Lint ``paths``, print a report, and return the process exit code.

    ``baseline`` filters out tolerated findings before reporting;
    ``write_baseline_to`` instead records the current findings as the new
    baseline (and exits 0).  ``output`` redirects the report to a file.
    """
    if fmt not in FORMATS:
        print(f"repro lint: unknown format {fmt!r} (choose from {', '.join(FORMATS)})")
        return 2
    try:
        findings = lint_paths(paths, exclude=exclude)
    except FileNotFoundError as exc:
        print(f"repro lint: {exc}")
        return 2

    if write_baseline_to is not None:
        write_baseline(write_baseline_to, findings)
        print(f"repro lint: wrote baseline with {len(findings)} finding(s) "
              f"to {write_baseline_to}")
        return 0

    if baseline is not None:
        try:
            findings = load_baseline(baseline).filter(findings)
        except (OSError, ValueError, KeyError) as exc:
            print(f"repro lint: bad baseline {baseline}: {exc}")
            return 2

    report = format_json(findings) if fmt == "json" else format_text(findings)

    if output is not None:
        Path(output).write_text(report + "\n", encoding="utf-8")
        print(f"repro lint: wrote {fmt} report to {output} "
              f"({len(findings)} finding(s))")
    else:
        print(report)
    return 1 if findings else 0
