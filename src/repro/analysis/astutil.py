"""AST helpers shared by the SPMD lint rules.

The helpers encode the vocabulary of the simulated MPI runtime: which method
names are collective (every rank of the communicator must call them, in the
same order), which are one-sided window accesses, and what makes an
expression *rank-dependent* (its value can differ across ranks of the same
job, so control flow guarded by it can diverge).
"""

from __future__ import annotations

import ast
from typing import Iterator

#: Method names that are collective over a communicator.  Calling any of
#: these under rank-divergent control flow is the classic SPMD deadlock.
COLLECTIVE_METHODS = frozenset({
    "barrier", "bcast", "reduce", "allreduce",
    "gather", "scatter",
    "allgather", "allgatherv", "alltoall", "alltoallv",
    "split", "fence", "free",
})

#: Constructors that are collective calls (``Window(comm, ...)``).
COLLECTIVE_CONSTRUCTORS = frozenset({"Window"})

#: Point-to-point sends.  The runtime has none, but ``send`` stays: the
#: seeded engine mutation ``hop-as-sends-over-a-set`` (an all-to-all hop
#: rewritten as sends in set order) must still be flagged SPMD601.
TAGGED_METHODS = frozenset({"send"})


#: ``random`` module attributes that are fine in SPMD code (seeding,
#: constructing an explicitly-seeded generator, state manipulation).
_RANDOM_SAFE = frozenset({
    "seed", "Random", "SystemRandom", "getstate", "setstate",
})
_NP_RANDOM_SAFE = frozenset({
    "seed", "default_rng", "RandomState", "Generator", "SeedSequence",
    "get_state", "set_state", "BitGenerator", "PCG64", "Philox",
})

def call_method_name(node: ast.Call) -> str | None:
    """``obj.meth(...)`` -> ``"meth"``; plain-name calls return None."""
    if isinstance(node.func, ast.Attribute):
        return node.func.attr
    return None


def call_plain_name(node: ast.Call) -> str | None:
    """``Name(...)`` -> ``"Name"``; attribute calls return None."""
    if isinstance(node.func, ast.Name):
        return node.func.id
    return None


def receiver_name(node: ast.Call) -> str | None:
    """``x.meth(...)`` -> ``"x"`` when the receiver is a simple name."""
    if isinstance(node.func, ast.Attribute) and isinstance(node.func.value, ast.Name):
        return node.func.value.id
    return None


def is_collective_call(node: ast.Call) -> str | None:
    """Return the collective op name if ``node`` is a collective call.

    A collective is either a known method name on any receiver *except* a
    string literal (``"a,b".split`` is not MPI_Comm_split) or a bare
    ``Window(...)`` construction.
    """
    meth = call_method_name(node)
    if meth in COLLECTIVE_METHODS:
        recv = node.func.value  # type: ignore[union-attr]
        if isinstance(recv, ast.Constant) and isinstance(recv.value, str):
            return None
        if isinstance(recv, ast.JoinedStr):
            return None
        return meth
    name = call_plain_name(node)
    if name in COLLECTIVE_CONSTRUCTORS:
        return name
    return None


def expr_references_rank(node: ast.expr, tainted: set[str]) -> bool:
    """Is the expression's value potentially rank-dependent?

    True when it mentions a ``.rank`` attribute (``comm.rank``,
    ``self.rank``, ``grid.comm.rank``), a grid coordinate (``grid.i`` /
    ``A.grid.j`` — the engines' own rank idiom) or any name in ``tainted``
    — the set of local variables assigned from rank-dependent expressions.
    """
    for sub in ast.walk(node):
        if isinstance(sub, ast.Attribute):
            if sub.attr == "rank":
                return True
            owner = dotted_name(sub.value) or ""
            if sub.attr in ("i", "j") and owner.rsplit(".", 1)[-1] == "grid":
                return True
        if isinstance(sub, ast.Name) and sub.id in tainted:
            return True
    return False


def rank_tainted_names(fn: ast.FunctionDef | ast.AsyncFunctionDef) -> set[str]:
    """Local names assigned (directly or transitively) from ``.rank``.

    A single forward pass over the function body in source order; enough for
    the ``rank = comm.rank`` / ``row = rank // pc`` idiom the lint targets.
    """
    tainted: set[str] = set()
    for arg in fn.args.args + fn.args.kwonlyargs:
        if arg.arg == "rank":
            tainted.add(arg.arg)
    for node in ast.walk(fn):
        if isinstance(node, ast.Assign) and expr_references_rank(node.value, tainted):
            for tgt in node.targets:
                for sub in ast.walk(tgt):
                    if isinstance(sub, ast.Name):
                        tainted.add(sub.id)
        elif isinstance(node, ast.AugAssign) and isinstance(node.target, ast.Name):
            if expr_references_rank(node.value, tainted):
                tainted.add(node.target.id)
    return tainted


def is_spmd_function(fn: ast.FunctionDef | ast.AsyncFunctionDef) -> bool:
    """Heuristic: does this function execute on every rank of an SPMD job?

    True when a parameter looks like a communicator (named ``comm`` or
    ``*comm``), when the body touches a ``.rank`` attribute, when it makes
    any collective call, or when it hands a communicator (``grid.rowcomm``)
    to a callee, which is how the engines reach their collective helpers.
    Functions outside this set (pure local kernels, CLI glue) are exempt
    from the SPMD rules.
    """
    for arg in fn.args.args + fn.args.kwonlyargs + fn.args.posonlyargs:
        if arg.arg == "comm" or arg.arg.endswith("comm"):
            return True
    for node in ast.walk(fn):
        if isinstance(node, ast.Attribute) and node.attr == "rank":
            return True
        if isinstance(node, ast.Call) and (is_collective_call(node) or any(
                (dotted_name(arg) or "").endswith("comm") for arg in node.args)):
            return True
    return False


def walk_functions(tree: ast.AST) -> Iterator[ast.FunctionDef | ast.AsyncFunctionDef]:
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node


def own_nodes(fn: ast.AST) -> Iterator[ast.AST]:
    """Like ``ast.walk`` but stops at nested function/class definitions.

    The first-generation rules used ``ast.walk(fn)`` and therefore attributed
    nested functions' statements to the enclosing function (and reported them
    twice, once per scope).  Every per-function rule walks ``own_nodes``
    instead: nested definitions execute in their own frame and are analyzed
    as their own functions by :func:`walk_functions`.
    """
    stack: list[ast.AST] = [fn]
    while stack:
        node = stack.pop()
        yield node
        if node is not fn and isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Lambda)):
            continue  # the definition itself is visible; its body is not
        stack.extend(ast.iter_child_nodes(node))


def dotted_name(node: ast.expr) -> str | None:
    """Flatten ``a.b.c`` (Names and Attributes only) to ``"a.b.c"``."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def always_terminates(stmts: list[ast.stmt]) -> bool:
    """Does every path through ``stmts`` leave the enclosing code sequence
    (return / raise / break / continue)?  Structural approximation: loops
    are assumed able to complete normally."""
    for stmt in stmts:
        if isinstance(stmt, (ast.Return, ast.Raise, ast.Break, ast.Continue)):
            return True
        if isinstance(stmt, ast.If) and stmt.orelse \
                and always_terminates(stmt.body) and always_terminates(stmt.orelse):
            return True
        if isinstance(stmt, ast.Try):
            tails = [stmt.body + stmt.orelse] + [h.body for h in stmt.handlers]
            if stmt.finalbody and always_terminates(stmt.finalbody):
                return True
            if all(always_terminates(t) for t in tails):
                return True
    return False


def assigned_names(fn: ast.FunctionDef | ast.AsyncFunctionDef) -> set[str]:
    """Names bound in the function's own scope: params plus assignment /
    for-target / with-as / import bindings (nested defs excluded)."""
    a = fn.args
    names = {p.arg for p in a.args + a.kwonlyargs + a.posonlyargs}
    if a.vararg:
        names.add(a.vararg.arg)
    if a.kwarg:
        names.add(a.kwarg.arg)
    for node in own_nodes(fn):
        if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for tgt in targets:
                for sub in ast.walk(tgt):
                    # Store-context Names only: ``x[k] = v`` / ``x.a = v``
                    # mutate ``x`` without binding it in this scope
                    if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Store):
                        names.add(sub.id)
        elif isinstance(node, (ast.For, ast.AsyncFor)):
            for sub in ast.walk(node.target):
                if isinstance(sub, ast.Name):
                    names.add(sub.id)
        elif isinstance(node, (ast.With, ast.AsyncWith)):
            for item in node.items:
                if item.optional_vars is not None:
                    for sub in ast.walk(item.optional_vars):
                        if isinstance(sub, ast.Name):
                            names.add(sub.id)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            if node is not fn:
                names.add(node.name)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                names.add((alias.asname or alias.name).split(".")[0])
    return names


def comm_param_names(fn: ast.FunctionDef | ast.AsyncFunctionDef) -> set[str]:
    """Parameters that look like communicators (``comm``, ``row_comm``…)."""
    out = set()
    for arg in fn.args.args + fn.args.kwonlyargs + fn.args.posonlyargs:
        if arg.arg == "comm" or arg.arg.endswith("comm"):
            out.add(arg.arg)
    return out
