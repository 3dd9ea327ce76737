"""Intraprocedural control-flow graphs for the SPMD analyzer.

The linter's first generation reasoned about line numbers; that breaks the
moment control flow does anything interesting (an RMA access *inside a loop*
textually before the ``free()`` that kills the window, code after an early
``return``).  This module builds a conventional basic-block CFG per function
and provides a worklist solver for forward dataflow problems over it.

Scope and precision:

* every statement of the function body lands in exactly one basic block
  (nested function/class bodies are *not* part of the enclosing CFG — they
  execute in their own frame and get their own CFG);
* ``if``/``while``/``for``/``try``/``with``/``match`` produce the usual
  edges; ``break``/``continue``/``return``/``raise`` terminate their block;
* exception edges are approximated: the block entering a ``try`` may jump
  to any handler (we do not model which statement raises);
* unreachable code (after a ``return``, say) lands in blocks with no
  predecessors, which :func:`forward_dataflow` never reaches — so the
  rules, which read its in-states, skip it.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable


@dataclass
class Block:
    """One basic block: straight-line statements plus CFG edges."""

    id: int
    stmts: list[ast.stmt] = field(default_factory=list)
    succs: list[int] = field(default_factory=list)
    preds: list[int] = field(default_factory=list)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        kinds = ",".join(type(s).__name__ for s in self.stmts)
        return f"Block({self.id}, [{kinds}], ->{self.succs})"


class CFG:
    """Control-flow graph of one function (or module) body."""

    def __init__(self) -> None:
        self.blocks: list[Block] = []
        self.entry: int = self._new()
        self.exit: int = self._new()

    # -- construction --------------------------------------------------

    def _new(self) -> int:
        b = Block(id=len(self.blocks))
        self.blocks.append(b)
        return b.id

    def add_edge(self, src: int, dst: int) -> None:
        if dst not in self.blocks[src].succs:
            self.blocks[src].succs.append(dst)
            self.blocks[dst].preds.append(src)


@dataclass
class _Loop:
    head: int
    after: int


class _Builder:
    def __init__(self) -> None:
        self.cfg = CFG()
        self.current = self.cfg._new()
        self.cfg.add_edge(self.cfg.entry, self.current)
        self.loops: list[_Loop] = []

    # every statement is appended to exactly one block
    def place(self, stmt: ast.stmt) -> None:
        self.cfg.blocks[self.current].stmts.append(stmt)

    def fresh(self, *preds: int) -> int:
        b = self.cfg._new()
        for p in preds:
            self.cfg.add_edge(p, b)
        return b

    def seal(self, dst: int) -> None:
        """End the current block with an edge to ``dst``."""
        self.cfg.add_edge(self.current, dst)

    def dead_block(self) -> None:
        """Open a successor-of-nothing block (code after return/break)."""
        self.current = self.cfg._new()

    # -- statement dispatch ---------------------------------------------

    def build(self, stmts: Iterable[ast.stmt]) -> None:
        for stmt in stmts:
            meth = getattr(self, f"_on_{type(stmt).__name__}", self._on_simple)
            meth(stmt)

    def _on_simple(self, stmt: ast.stmt) -> None:
        self.place(stmt)

    def _on_Return(self, stmt: ast.stmt) -> None:
        self.place(stmt)
        self.seal(self.cfg.exit)
        self.dead_block()

    _on_Raise = _on_Return

    def _on_Break(self, stmt: ast.stmt) -> None:
        self.place(stmt)
        if self.loops:
            self.seal(self.loops[-1].after)
        else:  # break outside a loop: syntactically invalid, treat as exit
            self.seal(self.cfg.exit)
        self.dead_block()

    def _on_Continue(self, stmt: ast.stmt) -> None:
        self.place(stmt)
        if self.loops:
            self.seal(self.loops[-1].head)
        else:
            self.seal(self.cfg.exit)
        self.dead_block()

    def _on_If(self, stmt: ast.If) -> None:
        self.place(stmt)
        cond = self.current
        then_b = self.fresh(cond)
        self.current = then_b
        self.build(stmt.body)
        then_end = self.current
        if stmt.orelse:
            else_b = self.fresh(cond)
            self.current = else_b
            self.build(stmt.orelse)
            else_end = self.current
            join = self.fresh(then_end, else_end)
        else:
            join = self.fresh(then_end, cond)
        self.current = join

    def _loop(self, stmt: ast.stmt, body: list[ast.stmt],
              orelse: list[ast.stmt]) -> None:
        head = self.fresh(self.current)
        self.cfg.blocks[head].stmts.append(stmt)
        after = self.cfg._new()
        body_b = self.fresh(head)
        self.loops.append(_Loop(head, after))
        self.current = body_b
        self.build(body)
        self.seal(head)  # back edge
        self.loops.pop()
        if orelse:
            else_b = self.fresh(head)
            self.current = else_b
            self.build(orelse)
            self.seal(after)
        else:
            self.cfg.add_edge(head, after)
        self.current = after

    def _on_While(self, stmt: ast.While) -> None:
        self._loop(stmt, stmt.body, stmt.orelse)

    def _on_For(self, stmt: ast.For) -> None:
        self._loop(stmt, stmt.body, stmt.orelse)

    _on_AsyncFor = _on_For

    def _on_With(self, stmt: ast.With) -> None:
        self.place(stmt)
        body_b = self.fresh(self.current)
        self.current = body_b
        self.build(stmt.body)

    _on_AsyncWith = _on_With

    def _on_Try(self, stmt: ast.Try) -> None:
        self.place(stmt)
        pre = self.current
        body_b = self.fresh(pre)
        self.current = body_b
        self.build(stmt.body)
        body_end = self.current
        ends: list[int] = []
        if stmt.orelse:
            else_b = self.fresh(body_end)
            self.current = else_b
            self.build(stmt.orelse)
            ends.append(self.current)
        else:
            ends.append(body_end)
        for handler in stmt.handlers:
            # any statement in the try body may raise; approximate with an
            # edge from the block that entered the try
            h_b = self.fresh(pre, body_end)
            self.current = h_b
            self.build(handler.body)
            ends.append(self.current)
        if stmt.finalbody:
            fin = self.fresh(*ends)
            self.current = fin
            self.build(stmt.finalbody)
            after = self.fresh(self.current)
        else:
            after = self.fresh(*ends)
        self.current = after

    _on_TryStar = _on_Try

    def _on_Match(self, stmt: ast.stmt) -> None:
        self.place(stmt)
        cond = self.current
        ends: list[int] = [cond]  # no case may match
        for case in stmt.cases:  # type: ignore[attr-defined]
            c_b = self.fresh(cond)
            self.current = c_b
            self.build(case.body)
            ends.append(self.current)
        self.current = self.fresh(*ends)


def build_cfg(fn: "ast.FunctionDef | ast.AsyncFunctionDef | ast.Module") -> CFG:
    """Build the CFG of one function body (or a module's top level)."""
    b = _Builder()
    b.build(fn.body)
    b.seal(b.cfg.exit)
    return b.cfg


def forward_dataflow(
    cfg: CFG,
    init: Any,
    transfer: Callable[[Block, Any], Any],
    join: Callable[[Any, Any], Any],
    equal: Callable[[Any, Any], bool],
) -> dict[int, Any]:
    """Worklist solver for a forward may/must dataflow problem.

    ``init`` is the state at the entry block; ``transfer(block, state)``
    returns the out-state of ``block`` given its in-state (it must not
    mutate ``state``); ``join`` merges predecessor out-states; ``equal``
    decides convergence.  Returns the fixpoint **in-state** of every block.
    """
    in_states: dict[int, Any] = {cfg.entry: init}
    out_states: dict[int, Any] = {}
    work = [cfg.entry]
    while work:
        bid = work.pop(0)
        block = cfg.blocks[bid]
        state = in_states.get(bid, init if bid == cfg.entry else None)
        if state is None:
            continue
        out = transfer(block, state)
        prev = out_states.get(bid)
        if prev is not None and equal(prev, out):
            continue
        out_states[bid] = out
        for s in block.succs:
            merged = out
            for p in cfg.blocks[s].preds:
                if p != bid and p in out_states:
                    merged = join(merged, out_states[p])
            old = in_states.get(s)
            if old is None or not equal(old, merged):
                in_states[s] = merged
                if s not in work:
                    work.append(s)
    return in_states
