"""Driver of the static SPMD linter: parse files, run every rule.

The entry points mirror pyflakes: :func:`lint_source` for in-memory code
(used heavily by the tests), :func:`lint_file` for one file, and
:func:`lint_paths` for a mixed list of files and directory trees (the CLI's
``repro lint src examples``).

Each file is parsed once into a :class:`repro.analysis.engine.ModuleModel`
(rank-taint sets, call graph, collective-effect summaries) that every
rule then queries, and inline ``# repro: noqa[...]`` comments are honoured
before findings leave this module — so every consumer (tests, CLI, CI)
sees the same suppressed view.
"""

from __future__ import annotations

import ast
import os
from pathlib import Path
from typing import Iterable, Sequence

from .engine import build_model
from .report import Finding, sort_findings
from .rules import all_rules
from .suppress import apply_noqa


def lint_source(source: str, path: str = "<string>") -> list[Finding]:
    """Lint one module's source text; returns sorted, deduplicated findings."""
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as exc:
        return [Finding(path, exc.lineno or 1, (exc.offset or 1) - 1,
                        "SPMD000", f"syntax error: {exc.msg}")]
    model = build_model(tree, path, source)
    findings: list[Finding] = []
    for rule in all_rules():
        findings.extend(rule(model))
    findings = apply_noqa(findings, source)
    return sort_findings(list(dict.fromkeys(findings)))


def lint_file(path: str | os.PathLike) -> list[Finding]:
    p = Path(path)
    return lint_source(p.read_text(encoding="utf-8"), str(p))


def _iter_py_files(paths: Sequence[str | os.PathLike]) -> Iterable[Path]:
    for raw in paths:
        p = Path(raw)
        if p.is_dir():
            yield from sorted(x for x in p.rglob("*.py") if x.is_file())
        elif p.suffix == ".py" and p.is_file():
            yield p
        else:
            raise FileNotFoundError(f"lint target {p} is not a .py file or directory")


def lint_paths(
    paths: Sequence[str | os.PathLike],
    exclude: Sequence[str | os.PathLike] = (),
) -> list[Finding]:
    """Lint every ``.py`` file under ``paths`` (files or directory trees).

    ``exclude`` entries (files or directories) are skipped by resolved-path
    prefix match, so ``--exclude examples/buggy_spmd.py`` works from any
    working directory.
    """
    excluded = [Path(e).resolve() for e in exclude]

    def is_excluded(f: Path) -> bool:
        rf = f.resolve()
        return any(rf == e or e in rf.parents for e in excluded)

    findings: list[Finding] = []
    seen: set[Path] = set()
    for f in _iter_py_files(paths):
        rf = f.resolve()
        if rf in seen or is_excluded(f):
            continue
        seen.add(rf)
        findings.extend(lint_file(f))
    return sort_findings(findings)
