"""The analyzer's semantic model of one module.

:class:`ModuleModel` parses a module once and derives everything the rules
share, so each rule is a query instead of a re-traversal:

* per-function facts — the rank-taint set, the SPMD heuristic,
  own-statement lists;
* a module-level call graph over plain-name calls to module-local
  functions;
* per-function **collective effect summaries**: the ordered sequence of
  collectives a call to the function performs, with calls to module-local
  helpers expanded transitively.  This is what makes SPMD101/102
  interprocedural — a collective hidden two helpers deep under a
  rank-dependent branch is still part of the branch's effect sequence.

Effect sequences are small trees: ``op`` leaves (one collective entry),
``loop`` nodes (the body repeats an unknown number of times) and ``maybe``
nodes (a data-dependent conditional whose branches differ).  Two sequences
are compared structurally; a comparison involving ``maybe`` nodes is
*indefinite* and never produces a finding (no false positives from paths
the analyzer cannot prove).
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from functools import cached_property

from .astutil import (
    comm_param_names,
    expr_references_rank,
    is_collective_call,
    is_spmd_function,
    call_plain_name,
    rank_tainted_names,
    walk_functions,
)


# --------------------------------------------------------------------------
# effect sequences


@dataclass(frozen=True)
class Effect:
    """One element of a collective-effect sequence.

    ``kind`` is ``"op"`` (a collective entry, ``op`` names it), ``"loop"``
    (``sub`` repeats >= 0 times) or ``"maybe"`` (a conditional whose
    branches' sequences differ; ``sub``/``alt`` hold them).  ``node`` is the
    finding anchor **in the analyzed function** — for effects reached
    through a helper call it is the call site, and ``via`` records the
    chain of callee names the effect was inlined through.
    """

    kind: str
    op: str = ""
    node: ast.AST | None = field(default=None, compare=False, hash=False)
    via: tuple[str, ...] = field(default=(), compare=False, hash=False)
    sub: tuple["Effect", ...] = ()
    alt: tuple["Effect", ...] = ()

    def key(self):
        if self.kind == "op":
            return ("op", self.op)
        if self.kind == "loop":
            return ("loop", tuple(e.key() for e in self.sub))
        return ("maybe",
                tuple(e.key() for e in self.sub),
                tuple(e.key() for e in self.alt))


def effect_keys(seq: tuple[Effect, ...]):
    return tuple(e.key() for e in seq)


def is_definite(seq: tuple[Effect, ...]) -> bool:
    """No ``maybe`` node anywhere: the sequence is exactly what runs."""
    for e in seq:
        if e.kind == "maybe":
            return False
        if e.kind == "loop" and not is_definite(e.sub):
            return False
    return True


def flat_ops(seq: tuple[Effect, ...]) -> list[str]:
    """Human-readable op names, loops rendered as ``op*``."""
    out: list[str] = []
    for e in seq:
        if e.kind == "op":
            out.append(e.op if not e.via else f"{e.op} (via {'->'.join(e.via)})")
        elif e.kind == "loop":
            out.extend(f"{o}*" for o in flat_ops(e.sub))
        else:
            out.append("<data-dependent>")
    return out


def first_anchor(seq: tuple[Effect, ...]) -> Effect | None:
    for e in seq:
        if e.kind == "op":
            return e
        inner = first_anchor(e.sub) or first_anchor(e.alt)
        if inner is not None:
            return inner
    return None


def has_ops(seq: tuple[Effect, ...]) -> bool:
    return first_anchor(seq) is not None


# --------------------------------------------------------------------------
# per-function facts


@dataclass
class FunctionInfo:
    """Cached per-function facts shared by all rules."""

    node: "ast.FunctionDef | ast.AsyncFunctionDef"
    name: str
    qualname: str

    @cached_property
    def tainted(self) -> set:
        return rank_tainted_names(self.node)

    @cached_property
    def is_spmd(self) -> bool:
        return is_spmd_function(self.node)

    @cached_property
    def comm_names(self) -> set:
        return comm_param_names(self.node)


class ModuleModel:
    """Everything the rules need to know about one parsed module."""

    def __init__(self, tree: ast.Module, path: str, source: str = "") -> None:
        self.tree = tree
        self.path = path
        self.source = source
        self.functions: list[FunctionInfo] = []
        #: plain name -> FunctionInfo for *module-level* defs only — the
        #: namespace plain-name calls resolve in.
        self.toplevel: dict[str, FunctionInfo] = {}
        self._info_by_node: dict[int, FunctionInfo] = {}
        self._summaries: dict[int, tuple[Effect, ...] | None] = {}
        self._in_progress: set[int] = set()
        for fn in walk_functions(tree):
            info = FunctionInfo(fn, fn.name, fn.name)
            self.functions.append(info)
            self._info_by_node[id(fn)] = info
        for stmt in tree.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self.toplevel[stmt.name] = self._info_by_node[id(stmt)]

    def info(self, fn: ast.AST) -> FunctionInfo:
        return self._info_by_node[id(fn)]

    def resolve_call(self, call: ast.Call) -> FunctionInfo | None:
        """Resolve a plain-name call to a module-level function, if any."""
        name = call_plain_name(call)
        if name is None:
            return None
        return self.toplevel.get(name)

    # -- collective effect summaries ------------------------------------

    def summary(self, fn: ast.AST) -> tuple[Effect, ...]:
        """Collective-effect sequence of calling ``fn``.

        Recursive call cycles yield an indefinite summary (a single
        ``maybe`` node) so callers never report findings based on them.
        """
        key = id(fn)
        if key in self._summaries:
            cached = self._summaries[key]
            return cached if cached is not None else (Effect("maybe"),)
        if key in self._in_progress:
            return (Effect("maybe"),)
        self._in_progress.add(key)
        try:
            seq = self.effects_of(fn.body, self.info(fn))
        finally:
            self._in_progress.discard(key)
        self._summaries[key] = seq
        return seq

    def effects_of(self, stmts: list[ast.stmt],
                   info: FunctionInfo) -> tuple[Effect, ...]:
        """Expanded collective-effect sequence of a statement list."""
        out: list[Effect] = []
        for stmt in stmts:
            out.extend(self._effects_of_stmt(stmt, info))
        return tuple(out)

    def _effects_of_stmt(self, stmt: ast.stmt,
                         info: FunctionInfo) -> tuple[Effect, ...]:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            return ()
        if isinstance(stmt, ast.If):
            head = self._effects_of_expr(stmt.test, info)
            a = self.effects_of(stmt.body, info)
            b = self.effects_of(stmt.orelse, info)
            if effect_keys(a) == effect_keys(b):
                return head + a
            if not a and not b:
                return head
            if expr_references_rank(stmt.test, info.tainted):
                # rank-divergent collectives are this function's own
                # SPMD101 finding; the summary stays honest for callers
                return head + (Effect("maybe", node=stmt, sub=a, alt=b),)
            return head + (Effect("maybe", node=stmt, sub=a, alt=b),)
        if isinstance(stmt, (ast.While, ast.For, ast.AsyncFor)):
            head_expr = stmt.test if isinstance(stmt, ast.While) else stmt.iter
            head = self._effects_of_expr(head_expr, info)
            body = self.effects_of(stmt.body, info) \
                + self.effects_of(stmt.orelse, info)
            if not body:
                return head
            return head + (Effect("loop", node=stmt, sub=body),)
        if isinstance(stmt, ast.Try):
            body = self.effects_of(stmt.body, info) \
                + self.effects_of(stmt.orelse, info)
            handlers = tuple(
                e for h in stmt.handlers for e in self.effects_of(h.body, info)
            )
            final = self.effects_of(stmt.finalbody, info)
            if handlers or (body and stmt.handlers):
                # an exception may skip part of the body and run a handler
                return (Effect("maybe", node=stmt, sub=body, alt=handlers),) + final
            return body + final
        if isinstance(stmt, (ast.With, ast.AsyncWith)):
            head = tuple(
                e for item in stmt.items
                for e in self._effects_of_expr(item.context_expr, info)
            )
            return head + self.effects_of(stmt.body, info)
        if hasattr(ast, "Match") and isinstance(stmt, ast.Match):
            branches = [self.effects_of(c.body, info) for c in stmt.cases]
            keys = {effect_keys(b) for b in branches}
            if len(keys) == 1 and branches:
                return branches[0]
            if any(has_ops(b) for b in branches):
                return (Effect("maybe", node=stmt,
                               sub=branches[0] if branches else ()),)
            return ()
        # simple statement: collect call effects in source order
        return self._effects_of_expr(stmt, info)

    def _effects_of_expr(self, node: ast.AST,
                         info: FunctionInfo) -> tuple[Effect, ...]:
        """Collective effects of the calls inside one expression/statement."""
        calls: list[ast.Call] = []

        def visit(n: ast.AST) -> None:
            if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef,
                              ast.ClassDef, ast.Lambda)):
                return
            if isinstance(n, ast.Call):
                calls.append(n)
            for child in ast.iter_child_nodes(n):
                visit(child)

        visit(node)
        calls.sort(key=lambda c: (c.lineno, c.col_offset))
        out: list[Effect] = []
        for call in calls:
            op = is_collective_call(call)
            if op is not None:
                out.append(Effect("op", op=op, node=call))
                continue
            callee = self.resolve_call(call)
            if callee is not None and callee.node is not info.node:
                for eff in self.summary(callee.node):
                    out.append(Effect(eff.kind, op=eff.op, node=call,
                                      via=(callee.name,) + eff.via,
                                      sub=eff.sub, alt=eff.alt))
        return tuple(out)


def build_model(tree: ast.Module, path: str, source: str = "") -> ModuleModel:
    return ModuleModel(tree, path, source)
