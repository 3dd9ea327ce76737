"""Property tests for the analyzer's CFG builder.

The contract the rules rely on (:mod:`repro.analysis.cfg`):

* every statement of a function body lands in **exactly one** basic block
  (nested function/class bodies excluded — they get their own CFG);
* edges are consistent: ``b in blocks[s].preds`` iff ``s in blocks[b].succs``,
  and every edge endpoint is a valid block id;
* the worklist solver (:func:`~repro.analysis.cfg.forward_dataflow`, whose
  in-states the rules read) reaches exactly the blocks the entry reaches, so
  every statement is either analysed or dead — "reachable or reported";
* straight-line code (no return/raise/break/continue) has no unreachable
  statements, and the exit block is always reachable (loops may exit).

Hypothesis generates random deeply-nested function bodies from a small
statement grammar and checks the invariants on each.
"""

import ast

from hypothesis import given, settings, strategies as st

from repro.analysis.astutil import own_nodes
from repro.analysis.cfg import build_cfg, forward_dataflow


def own_statements(fn):
    """Every statement of ``fn``'s own body (nested bodies excluded)."""
    return [n for n in own_nodes(fn) if isinstance(n, ast.stmt) and n is not fn]


def all_stmts(cfg):
    return [s for b in cfg.blocks for s in b.stmts]


def solved_blocks(cfg):
    """The block ids the rules' dataflow solver gives an in-state."""
    return set(forward_dataflow(cfg, 0, lambda block, s: s, max, int.__eq__))


def dead_stmts(cfg):
    """The statements of the blocks the solver never reaches."""
    live = solved_blocks(cfg)
    return [s for b in cfg.blocks if b.id not in live for s in b.stmts]

# ---------------------------------------------------------------- generators

SIMPLE = st.sampled_from([
    "x = 1",
    "y = x + 1",
    "f(x)",
    "comm.barrier()",
    "pass",
])

TERMINATOR = st.sampled_from([
    "return x",
    "raise ValueError('boom')",
    "break",
    "continue",
])


def _indent(lines, by="    "):
    return [by + ln for ln in lines]


def _block(stmts):
    """Render a statement list, guaranteeing it is non-empty."""
    return stmts if stmts else ["pass"]


def compound(children):
    """Strategies for compound statements wrapping generated child bodies."""
    body = st.lists(children, min_size=0, max_size=3).map(
        lambda groups: [ln for g in groups for ln in g])

    def render_if(parts):
        a, b = parts
        out = ["if cond:"] + _indent(_block(a))
        if b:
            out += ["else:"] + _indent(b)
        return out

    def render_loop(parts):
        kw, a = parts
        return [f"{kw}:"] + _indent(_block(a))

    def render_try(parts):
        a, b, c = parts
        out = ["try:"] + _indent(_block(a))
        out += ["except ValueError:"] + _indent(_block(b))
        if c:
            out += ["finally:"] + _indent(c)
        return out

    def render_with(parts):
        (a,) = parts
        return ["with ctx() as v:"] + _indent(_block(a))

    return st.one_of(
        st.tuples(body, body).map(render_if),
        st.tuples(
            st.sampled_from(["for i in range(3)", "while cond"]), body
        ).map(render_loop),
        st.tuples(body, body, body).map(render_try),
        st.tuples(body).map(render_with),
    )


STMT = st.recursive(
    st.one_of(SIMPLE.map(lambda s: [s]), TERMINATOR.map(lambda s: [s])),
    compound,
    max_leaves=12,
)

BODIES = st.lists(STMT, min_size=1, max_size=6).map(
    lambda groups: [ln for g in groups for ln in g])


def make_fn(body_lines):
    src = "def fn(comm, x, cond):\n" + "\n".join(_indent(body_lines))
    tree = ast.parse(src)
    return tree.body[0]


# ---------------------------------------------------------------- properties


@settings(max_examples=200, deadline=None)
@given(BODIES)
def test_every_statement_in_exactly_one_block(body_lines):
    fn = make_fn(body_lines)
    cfg = build_cfg(fn)
    placed = all_stmts(cfg)
    # exactly one placement: no statement appears in two blocks
    assert len({id(s) for s in placed}) == len(placed)
    # and the placements cover precisely the function's own statements
    assert {id(s) for s in placed} == {id(s) for s in own_statements(fn)}


@settings(max_examples=200, deadline=None)
@given(BODIES)
def test_edges_are_consistent(body_lines):
    cfg = build_cfg(make_fn(body_lines))
    n = len(cfg.blocks)
    for b in cfg.blocks:
        for s in b.succs:
            assert 0 <= s < n, "dangling successor"
            assert b.id in cfg.blocks[s].preds
        for p in b.preds:
            assert 0 <= p < n, "dangling predecessor"
            assert b.id in cfg.blocks[p].succs


@settings(max_examples=200, deadline=None)
@given(BODIES)
def test_reachable_or_reported(body_lines):
    fn = make_fn(body_lines)
    cfg = build_cfg(fn)
    reached, stack = set(), [cfg.entry]
    while stack:
        b = stack.pop()
        if b not in reached:
            reached.add(b)
            stack.extend(cfg.blocks[b].succs)
    live = solved_blocks(cfg)
    assert live == reached
    # the exit is always reachable (loop heads over-approximate with an
    # exit edge, so even `while True` cannot orphan it)
    assert cfg.exit in live


@settings(max_examples=150, deadline=None)
@given(st.lists(st.one_of(SIMPLE.map(lambda s: [s]),
                          compound(SIMPLE.map(lambda s: [s]))),
                min_size=1, max_size=6).map(
                    lambda groups: [ln for g in groups for ln in g]))
def test_straight_line_code_is_fully_reachable(body_lines):
    """Without return/raise/break/continue, nothing is unreachable."""
    cfg = build_cfg(make_fn(body_lines))
    assert dead_stmts(cfg) == []


# ------------------------------------------------------------- pinned shapes


def cfg_of(src):
    return build_cfg(ast.parse(src).body[0])


def test_code_after_return_is_unreachable():
    cfg = cfg_of("def f():\n    return 1\n    x = 2\n")
    dead = dead_stmts(cfg)
    assert len(dead) == 1 and isinstance(dead[0], ast.Assign)


def test_loop_has_back_edge():
    cfg = cfg_of("def f(n):\n    for i in range(n):\n        g(i)\n")
    head = next(b for b in cfg.blocks if b.stmts
                and isinstance(b.stmts[0], ast.For))
    body = next(b for b in cfg.blocks if b.stmts
                and isinstance(b.stmts[0], ast.Expr))
    assert head.id in body.succs, "loop body must loop back to the head"


def test_break_jumps_past_the_loop():
    cfg = cfg_of(
        "def f(n):\n"
        "    while n:\n"
        "        break\n"
        "        g()\n"
        "    h()\n"
    )
    dead = dead_stmts(cfg)
    assert len(dead) == 1
    assert isinstance(dead[0], ast.Expr)
    assert dead[0].value.func.id == "g"


def test_nested_function_bodies_are_excluded():
    cfg = cfg_of(
        "def f(comm):\n"
        "    def inner():\n"
        "        return 1\n"
        "    return inner\n"
    )
    kinds = [type(s).__name__ for s in all_stmts(cfg)]
    assert kinds.count("Return") == 1  # inner's return is not in f's CFG
    assert "FunctionDef" in kinds  # but the def statement itself is
