"""The SPMD1xx and SPMD401 rule families, built on the dataflow engine.

Every rule is a function ``rule(model) -> list[Finding]`` over a
:class:`~repro.analysis.engine.ModuleModel`.  The catalogue mirrors the
failure classes of the paper's MCM-DIST:

SPMD101
    A rank-dependent branch whose sides perform *different* collective
    sequences — including collectives reached only through module-local
    helper calls (interprocedural effect summaries), and collectives that
    become unreachable because one side returns/raises early
    (path-sensitivity).  Under MPI semantics every rank must enter the same
    collectives in the same order; divergence deadlocks or silently
    exchanges garbage.
SPMD102
    A collective (possibly inside a helper) in a loop whose trip count is
    rank-dependent: ranks run different numbers of collective rounds.
SPMD401
    An unseeded random source inside an SPMD function.  Seeding is scoped
    per RNG: ``random.seed`` at module scope or earlier in the function
    excuses ``random.*``, ``np.random.seed`` excuses the NumPy global RNG,
    and seeding one source never excuses the other (the first-generation
    linter suppressed the whole module on *any* ``.seed()`` call).

The SPMD6xx/7xx families live in :mod:`.determinism` and
:mod:`.portability`.
"""

from __future__ import annotations

import ast

from .astutil import (
    _NP_RANDOM_SAFE,
    _RANDOM_SAFE,
    always_terminates,
    dotted_name,
    expr_references_rank,
    own_nodes,
)
from .engine import (
    Effect,
    ModuleModel,
    effect_keys,
    first_anchor,
    flat_ops,
    is_definite,
)
from .report import Finding


# --------------------------------------------------------------- SPMD101/102


def _branch_raises(stmts: list[ast.stmt]) -> bool:
    """Does the branch contain a top-level-ish ``raise`` (validation exits
    that abort the whole SPMD job rather than silently diverging)?"""
    for stmt in stmts:
        if isinstance(stmt, ast.Raise):
            return True
        if isinstance(stmt, ast.If) and (
                _branch_raises(stmt.body) or _branch_raises(stmt.orelse)):
            return True
    return False


def _finding_at(model: ModuleModel, eff: Effect, fn_name: str,
                code: str, message: str) -> Finding:
    node = eff.node
    if eff.via:
        message += f" (reached through helper call {'->'.join(eff.via)})"
    return Finding(model.path, node.lineno, node.col_offset, code, message,
                   function=fn_name)


def rule_collective_divergence(model: ModuleModel) -> list[Finding]:
    """SPMD101 + SPMD102: collectives under rank-divergent control flow."""
    findings: list[Finding] = []
    for info in model.functions:
        if not info.is_spmd:
            continue

        def scan(stmts: list[ast.stmt], following) -> None:
            for i, stmt in enumerate(stmts):
                if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                                     ast.ClassDef)):
                    continue
                rest = stmts[i + 1:]

                def here_after():
                    return model.effects_of(rest, info) + following()

                if isinstance(stmt, ast.If):
                    if expr_references_rank(stmt.test, info.tainted):
                        _check_rank_if(stmt, here_after)
                    scan(stmt.body, here_after)
                    scan(stmt.orelse, here_after)
                elif isinstance(stmt, (ast.While, ast.For, ast.AsyncFor)):
                    bound = stmt.test if isinstance(stmt, ast.While) else stmt.iter
                    if expr_references_rank(bound, info.tainted):
                        _check_rank_loop(stmt)
                    scan(stmt.body, here_after)
                    scan(stmt.orelse, here_after)
                elif isinstance(stmt, ast.Try):
                    for sub in [stmt.body, stmt.orelse, stmt.finalbody] + [
                            h.body for h in stmt.handlers]:
                        scan(sub, here_after)
                elif isinstance(stmt, (ast.With, ast.AsyncWith)):
                    scan(stmt.body, here_after)
                elif hasattr(ast, "Match") and isinstance(stmt, ast.Match):
                    for case in stmt.cases:
                        scan(case.body, here_after)

        def _check_rank_if(stmt: ast.If, following) -> None:
            seq_if = model.effects_of(stmt.body, info)
            seq_else = model.effects_of(stmt.orelse, info)
            # a branch that always raises aborts the whole job under the
            # runtime's abort propagation (root-side validation is a common
            # legitimate pattern), so it cannot *divergently block* peers
            if _branch_raises(stmt.body) or _branch_raises(stmt.orelse):
                return
            term_if = always_terminates(stmt.body)
            term_else = bool(stmt.orelse) and always_terminates(stmt.orelse)
            if effect_keys(seq_if) == effect_keys(seq_else) and term_if == term_else:
                return
            # path-sensitive comparison: ranks that exit early inside the
            # branch skip the collectives *after* the If, so compare whole
            # continuation paths, not just the branch bodies
            after = following() if term_if != term_else else ()
            path_if = seq_if if term_if else seq_if + after
            path_else = seq_else if term_else else seq_else + after
            if effect_keys(path_if) == effect_keys(path_else):
                return
            if not (is_definite(path_if) and is_definite(path_else)):
                return
            anchor = first_anchor(path_if) or first_anchor(path_else)
            if anchor is None:
                return
            findings.append(_finding_at(
                model, anchor, info.name, "SPMD101",
                "collective sequence diverges across rank-dependent "
                f"branches (line {stmt.lineno}): ranks taking the if-branch "
                f"enter {flat_ops(path_if) or ['nothing']}, ranks taking the "
                f"else-branch enter {flat_ops(path_else) or ['nothing']}; "
                "every rank must enter the same collectives in the same order",
            ))

        def _check_rank_loop(stmt) -> None:
            body = model.effects_of(stmt.body, info)
            anchor = first_anchor(body)
            if anchor is not None:
                findings.append(_finding_at(
                    model, anchor, info.name, "SPMD102",
                    f"collective '{anchor.op}' inside a loop bounded by "
                    f"rank-dependent data (loop at line {stmt.lineno}): "
                    "ranks may execute different numbers of collective "
                    "rounds",
                ))

        scan(info.node.body, lambda: ())
    return findings


# ------------------------------------------------------------------- SPMD401


def _is_seed_call(node: ast.Call) -> bool:
    return isinstance(node.func, ast.Attribute) and node.func.attr == "seed"


def _seed_scope(node: ast.Call) -> str | None:
    """Which RNG a ``.seed()`` call seeds: ``"random"``, ``"np.random"``,
    or None for a seed on some other object (an explicit Generator — its
    uses are already safe, so it excuses nothing global)."""
    target = dotted_name(node.func.value) if isinstance(node.func, ast.Attribute) else None
    if target == "random":
        return "random"
    if target in ("np.random", "numpy.random"):
        return "np.random"
    return None


def _random_hazard(node: ast.Call) -> tuple[str, str] | None:
    """(scope, rendered name) of the unseeded random source used, or None."""
    f = node.func
    if isinstance(f, ast.Attribute) and isinstance(f.value, ast.Name) \
            and f.value.id == "random" and f.attr not in _RANDOM_SAFE:
        return "random", f"random.{f.attr}"
    if isinstance(f, ast.Attribute) and isinstance(f.value, ast.Attribute) \
            and f.value.attr == "random" \
            and isinstance(f.value.value, ast.Name) \
            and f.value.value.id in ("np", "numpy"):
        if f.attr not in _NP_RANDOM_SAFE:
            return "np.random", f"{f.value.value.id}.random.{f.attr}"
        if f.attr in ("default_rng", "RandomState") and not node.args and not node.keywords:
            return "", f"{f.value.value.id}.random.{f.attr}()"
    if isinstance(f, ast.Name) and f.id == "default_rng" \
            and not node.args and not node.keywords:
        return "", "default_rng()"
    return None


def _module_scope_seeds(tree: ast.Module) -> set[str]:
    """RNG scopes seeded by module-level statements (imports-time seeding)."""
    seeded: set[str] = set()
    for stmt in tree.body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            continue
        for node in ast.walk(stmt):
            if isinstance(node, ast.Call) and _is_seed_call(node):
                scope = _seed_scope(node)
                if scope:
                    seeded.add(scope)
    return seeded


def rule_unseeded_random(model: ModuleModel) -> list[Finding]:
    """SPMD401: unseeded random sources inside SPMD functions, with seeding
    scoped per function and per RNG object."""
    findings: list[Finding] = []
    module_seeded = _module_scope_seeds(model.tree)
    for info in model.functions:
        if not info.is_spmd:
            continue
        seed_lines: dict[str, int] = {}
        for n in own_nodes(info.node):
            if isinstance(n, ast.Call) and _is_seed_call(n):
                scope = _seed_scope(n)
                if scope:
                    seed_lines[scope] = min(seed_lines.get(scope, n.lineno), n.lineno)
        for node in own_nodes(info.node):
            if not isinstance(node, ast.Call):
                continue
            hazard = _random_hazard(node)
            if hazard is None:
                continue
            scope, name = hazard
            if scope and scope in module_seeded:
                continue
            if scope and scope in seed_lines and node.lineno > seed_lines[scope]:
                continue
            findings.append(Finding(
                model.path, node.lineno, node.col_offset, "SPMD401",
                f"unseeded '{name}' in an SPMD function: each rank draws "
                "an independent stream, so replicated computations diverge; "
                "seed explicitly (e.g. np.random.default_rng(seed))",
                function=info.name,
            ))
    return findings


def _registry():
    from .determinism import rule_determinism
    from .portability import rule_portability

    return (
        rule_collective_divergence,
        rule_unseeded_random,
        rule_determinism,
        rule_portability,
    )


#: The rule registry, in report order (filled lazily to avoid import cycles).
ALL_RULES = ()


def all_rules():
    global ALL_RULES
    if not ALL_RULES:
        ALL_RULES = _registry()
    return ALL_RULES
