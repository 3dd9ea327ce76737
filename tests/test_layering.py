"""Layering: ``runtime`` and ``distmat`` do not know which algorithm runs
on them — no import of ``repro.matching`` / ``repro.graphs`` at any depth
(module level or inside a function), no exceptions.  And one price: outside
``perfmodel`` and ``simulate`` no module reads a machine's α, β or γ
itself — it prices through ``MachineSpec.price``."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"
UPWARD = ("repro.matching", "repro.graphs")


def _imported_modules(path: Path):
    package = ["repro", *path.relative_to(SRC).parts[:-1]]
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = package[: len(package) - node.level + 1] if node.level else []
            module = ".".join(base + ([node.module] if node.module else []))
            yield module
            # ``from .. import matching`` names the package in the alias
            yield from (f"{module}.{alias.name}" for alias in node.names)


def test_runtime_and_distmat_import_nothing_above_them():
    offenders = [
        f"{path.relative_to(SRC)}: {mod}"
        for layer in ("runtime", "distmat")
        for path in sorted((SRC / layer).glob("*.py"))
        for mod in _imported_modules(path)
        if mod.startswith(UPWARD)
    ]
    assert not offenders, offenders


def test_only_perfmodel_and_simulate_read_machine_constants():
    constants = {"alpha", "beta", "gamma", "alpha_intra", "beta_intra"}
    offenders = [
        f"{path.relative_to(SRC)}:{node.lineno}: .{node.attr}"
        for path in sorted(SRC.rglob("*.py"))
        if path.relative_to(SRC).parts[0] not in ("perfmodel", "simulate")
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Attribute) and node.attr in constants
    ]
    assert not offenders, offenders

