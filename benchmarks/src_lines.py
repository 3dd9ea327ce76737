"""How much code is in ``src/``?  The tracked number behind ROADMAP's
"least code" aim.

Per package and in total, two counts per ``.py`` file:

* **physical** — lines in the file;
* **code** — lines that are not blank, not comment-only and not part of a
  module / class / function docstring.  Reformatting, comments and
  docstrings therefore cannot move it; only statements do.

Stdlib only (``ast`` + ``tokenize``).  Usage::

    python benchmarks/src_lines.py                 # table, src/repro
    python benchmarks/src_lines.py --json          # machine-readable, per file too
    python benchmarks/src_lines.py PATH            # another checkout's src/repro
"""

from __future__ import annotations

import argparse
import ast
import io
import json
import sys
import tokenize
from pathlib import Path

DEFAULT_ROOT = Path(__file__).resolve().parent.parent / "src" / "repro"


def docstring_lines(tree: ast.AST) -> set[int]:
    """Line numbers covered by module/class/function docstrings."""
    lines: set[int] = set()
    for node in ast.walk(tree):
        if not isinstance(
            node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
        ):
            continue
        body = node.body
        if (
            body
            and isinstance(body[0], ast.Expr)
            and isinstance(body[0].value, ast.Constant)
            and isinstance(body[0].value.value, str)
        ):
            lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def count(source: str) -> tuple[int, int]:
    """(physical, code) line counts of one module's source text."""
    skip = docstring_lines(ast.parse(source))
    code: set[int] = set()
    ignorable = {
        tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
        tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER,
    }
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in ignorable:
            code.update(range(tok.start[0], tok.end[0] + 1))
    return len(source.splitlines()), len(code - skip)


def survey(root: Path) -> dict:
    """``{"files": {relpath: {physical, code}}, "packages": {...}, "total": {...}}``"""
    files: dict[str, dict[str, int]] = {}
    packages: dict[str, dict[str, int]] = {}
    total = {"physical": 0, "code": 0, "files": 0}
    for path in sorted(root.rglob("*.py")):
        rel = path.relative_to(root)
        physical, code = count(path.read_text())
        files[str(rel)] = {"physical": physical, "code": code}
        pkg = rel.parts[0] if len(rel.parts) > 1 else "."
        for acc in (packages.setdefault(pkg, {"physical": 0, "code": 0, "files": 0}), total):
            acc["physical"] += physical
            acc["code"] += code
            acc["files"] += 1
    return {"root": str(root), "files": files, "packages": packages, "total": total}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("root", nargs="?", default=str(DEFAULT_ROOT),
                    help="package directory to count (default: this repo's src/repro)")
    ap.add_argument("--json", action="store_true", help="emit the full survey as JSON")
    args = ap.parse_args(argv)
    doc = survey(Path(args.root))
    if args.json:
        json.dump(doc, sys.stdout, indent=2, sort_keys=True)
        print()
        return 0
    row = "{:<28} {:>6} {:>10} {:>8}".format
    print(row("package", "files", "physical", "code"))
    for pkg, d in sorted(doc["packages"].items()):
        print(row(pkg, d["files"], d["physical"], d["code"]))
    print(row("TOTAL", doc["total"]["files"], doc["total"]["physical"], doc["total"]["code"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
