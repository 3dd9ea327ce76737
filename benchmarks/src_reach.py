"""Is every definition in ``src/`` reached by something other than a test?

ROADMAP's rule: a piece of ``src/`` stays only if an engine, a benchmark,
an example or a committed artifact exercises it — tests do not count.  This
script checks the name-level half of that rule.  It lists every module-level
function, every class and every public method defined under ``src/repro``
whose name occurs as an identifier (a name, an attribute or an imported
name — strings and docstrings do not count) nowhere in ``src/``,
``benchmarks/`` or ``examples/`` except inside its own definition.  The
match is by bare name, so a method counts as reached when any object's
attribute of that name is used.

Each flagged name must be deleted or listed in :data:`ALLOWLIST` with a
one-line reason; the script exits 1 on an unlisted name and on an allowlist
entry that is no longer flagged (so the list cannot rot).

Stdlib only (``ast``).  Usage::

    python benchmarks/src_reach.py          # report; exit 1 on unlisted names
"""

from __future__ import annotations

import ast
import sys
from collections import defaultdict
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
PACKAGE = REPO / "src" / "repro"
CALLER_DIRS = ("src", "benchmarks", "examples")

#: Definitions no caller names, kept on purpose: ``"module.qualname"`` ->
#: one-line reason.  A test is never a reason: what only tests reach moves
#: into ``tests/`` or goes.
ALLOWLIST: dict[str, str] = {
    "repro.perfmodel.collectives.msbfs_iteration":
        "α-β oracle of one MCM-DIST iteration, pinned against the engine's ledger",
    "repro.perfmodel.collectives.auction_round":
        "α-β oracle of one MWM-DIST round, pinned against the engine's ledger",
    "repro.perfmodel.collectives.auction_certificate":
        "α-β oracle of the MWM-DIST certificate, pinned against the engine's ledger",
    "repro.perfmodel.collectives.gather_direct":
        "α-β oracle of Communicator.gather's direct schedule",
    "repro.perfmodel.collectives.spmv_expand": "the paper's §IV-B expand cost",
    "repro.perfmodel.collectives.spmv_fold": "the paper's §IV-B fold cost",
}


def definitions(path: Path, module: str) -> list[tuple[str, str, int, int]]:
    """``(qualname, name, first line, last line)`` of the module-level
    functions and classes of one file and of its classes' public methods."""
    out = []
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            out.append((f"{module}.{node.name}", node.name, node.lineno, node.end_lineno))
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                        and not item.name.startswith("_"):
                    out.append((f"{module}.{node.name}.{item.name}", item.name,
                                item.lineno, item.end_lineno))
    return out


def name_lines(path: Path) -> dict[str, list[int]]:
    """Every identifier one file uses — a name, an attribute, an imported
    name — -> the lines it occurs on (f-string expressions included)."""
    lines: dict[str, list[int]] = defaultdict(list)
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Name):
            lines[node.id].append(node.lineno)
        elif isinstance(node, ast.Attribute):
            lines[node.attr].append(node.end_lineno)
        elif isinstance(node, ast.ImportFrom):
            for alias in node.names:
                lines[alias.name].append(node.lineno)
    return lines


def unreached() -> dict[str, str]:
    """Flagged qualname -> ``path:line`` of its definition."""
    uses = {
        path: name_lines(path)
        for d in CALLER_DIRS for path in sorted((REPO / d).rglob("*.py"))
    }
    flagged = {}
    for path in sorted(PACKAGE.rglob("*.py")):
        module = ".".join(path.relative_to(PACKAGE.parent).with_suffix("").parts)
        for qualname, name, first, last in definitions(path, module):
            reached = any(
                not (where == path and first <= line <= last)
                for where, names in uses.items() for line in names.get(name, ())
            )
            if not reached:
                flagged[qualname] = f"{path.relative_to(REPO)}:{first}"
    return flagged


def main() -> int:
    flagged = unreached()
    unlisted = sorted(set(flagged) - set(ALLOWLIST))
    stale = sorted(set(ALLOWLIST) - set(flagged))
    for qualname in sorted(flagged):
        note = ALLOWLIST.get(qualname, "NOT ALLOWLISTED")
        print(f"{flagged[qualname]}: {qualname} — {note}")
    for qualname in stale:
        print(f"stale allowlist entry (reached or gone): {qualname}")
    print(f"{len(flagged)} unreached definition(s), {len(unlisted)} not allowlisted, "
          f"{len(stale)} stale allowlist entr{'y' if len(stale) == 1 else 'ies'}")
    return 1 if unlisted or stale else 0


if __name__ == "__main__":
    sys.exit(main())
