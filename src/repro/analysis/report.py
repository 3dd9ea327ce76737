"""Findings produced by the static SPMD linter, and their renderings.

A :class:`Finding` pins one rule violation to a ``file:line:col`` location —
the shape every editor and CI annotation format understands.  The module
keeps rendering separate from detection so the same findings can be printed
as human-readable text, machine-readable JSON, or GitHub workflow commands.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field


#: Rule catalogue: code -> (summary, severity).  Severities follow compiler
#: convention: "error" findings are certainly wrong under MPI semantics,
#: "warning" findings are hazards that need human judgement.
RULES: dict[str, tuple[str, str]] = {
    "SPMD000": ("file could not be parsed", "error"),
    "SPMD101": ("collective sequence diverges across rank-dependent branches", "error"),
    "SPMD102": ("collective inside rank-dependent loop", "error"),
    "SPMD301": ("one-sided access outside the fence epoch of its window", "warning"),
    "SPMD401": ("unseeded random source in an SPMD function", "warning"),
    "SPMD601": ("unordered set iteration order escapes into comm or keyed stores", "warning"),
    "SPMD602": ("wall-clock read feeds SPMD algorithm state", "warning"),
    "SPMD603": ("order-sensitive float accumulation over an unordered collection", "warning"),
    "SPMD701": ("SPMD function writes module-level mutable state", "error"),
    "SPMD702": ("unpicklable payload crosses a rank boundary", "error"),
    "SPMD703": ("closure passed to the spmd() launcher cannot be pickled", "warning"),
}


@dataclass(frozen=True)
class Finding:
    """One rule violation at a source location."""

    path: str
    line: int
    col: int
    code: str
    message: str
    function: str = field(default="", compare=False)

    @property
    def severity(self) -> str:
        return RULES.get(self.code, ("", "warning"))[1]

    def render(self) -> str:
        where = f" [in {self.function}]" if self.function else ""
        return f"{self.path}:{self.line}:{self.col}: {self.code} {self.message}{where}"


def sort_findings(findings: list[Finding]) -> list[Finding]:
    return sorted(findings, key=lambda f: (f.path, f.line, f.col, f.code))


def format_text(findings: list[Finding]) -> str:
    """One finding per line plus a summary tail, pyflakes-style."""
    lines = [f.render() for f in sort_findings(findings)]
    nerr = sum(1 for f in findings if f.severity == "error")
    nwarn = len(findings) - nerr
    if findings:
        lines.append(f"{len(findings)} finding(s): {nerr} error(s), {nwarn} warning(s)")
    else:
        lines.append("no findings")
    return "\n".join(lines)


def format_json(findings: list[Finding]) -> str:
    payload = [
        {**asdict(f), "severity": f.severity} for f in sort_findings(findings)
    ]
    return json.dumps(payload, indent=2)
