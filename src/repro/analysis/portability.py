"""SPMD7xx: backend-portability lints.

The threads-as-ranks fabric is forgiving in two ways the process backend
is not: ranks share one address space (module globals are visible to
everyone) and payloads are handed over by reference (anything is
"picklable").  These rules are the merge gate for the process backend —
code that passes them runs unchanged when ranks become processes:

SPMD701
    Module-level mutable state written from an SPMD function (``global``
    rebinding, in-place mutation of a module global, keyed stores into
    one).  Under threads this is a shared-memory data race that happens to
    "work"; under processes each rank mutates its own copy and the writes
    silently vanish.
SPMD702
    Unpicklable payloads handed to ``bcast``/``gather``/``alltoall``/...:
    lambdas, nested functions, generator expressions, open file handles,
    or the communicator itself.  Threads pass these by reference; a
    process backend must pickle them and dies at the first boundary.
SPMD703
    Closures handed to the ``spmd(...)`` / ``launch(...)`` launcher: a
    nested function (or lambda) capturing enclosing locals cannot be
    pickled, so the job cannot even start under a process backend.  Entry
    points must be module-level functions taking their data through the
    launcher's arguments.
"""

from __future__ import annotations

import ast

from .astutil import (
    assigned_names,
    call_method_name,
    call_plain_name,
    own_nodes,
    receiver_name,
)
from .engine import ModuleModel
from .report import Finding

#: In-place mutation methods on builtin containers.
_MUTATING_METHODS = frozenset({
    "append", "extend", "insert", "remove", "pop", "clear", "add",
    "discard", "update", "setdefault", "popitem", "sort", "reverse",
    "appendleft", "popleft", "fill",
})

#: Comm methods that ship a payload across a rank boundary — the
#: runtime's collectives, whose payload is the first positional argument.
_PAYLOAD_METHODS = frozenset({
    "bcast", "gather", "scatter", "allgather", "allgatherv", "alltoall",
    "alltoallv", "reduce", "allreduce",
})

_MUTABLE_CONSTRUCTORS = frozenset({
    "list", "dict", "set", "bytearray", "defaultdict", "deque", "Counter",
    "OrderedDict",
})


def _module_mutable_globals(tree: ast.Module) -> set[str]:
    """Module-level names bound to mutable containers."""
    out: set[str] = set()
    for stmt in tree.body:
        if not isinstance(stmt, (ast.Assign, ast.AnnAssign)):
            continue
        value = stmt.value
        if value is None:
            continue
        mutable = isinstance(value, (ast.List, ast.Dict, ast.Set, ast.ListComp,
                                     ast.DictComp, ast.SetComp))
        if isinstance(value, ast.Call) \
                and call_plain_name(value) in _MUTABLE_CONSTRUCTORS:
            mutable = True
        if not mutable:
            continue
        targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
        for tgt in targets:
            if isinstance(tgt, ast.Name):
                out.add(tgt.id)
    return out


def _nested_def_names(fn: ast.AST) -> set[str]:
    """Names bound to nested function definitions in ``fn``'s own scope."""
    out: set[str] = set()
    for node in own_nodes(fn):
        if node is fn:
            continue
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            out.add(node.name)
        elif isinstance(node, ast.Assign) and isinstance(node.value, ast.Lambda):
            for tgt in node.targets:
                if isinstance(tgt, ast.Name):
                    out.add(tgt.id)
    return out


def _open_handle_names(fn: ast.AST) -> set[str]:
    """Names bound to ``open(...)`` results (assignment or with-as)."""
    out: set[str] = set()
    for node in own_nodes(fn):
        if isinstance(node, ast.Assign) and isinstance(node.value, ast.Call) \
                and call_plain_name(node.value) == "open":
            for tgt in node.targets:
                if isinstance(tgt, ast.Name):
                    out.add(tgt.id)
        elif isinstance(node, (ast.With, ast.AsyncWith)):
            for item in node.items:
                if isinstance(item.context_expr, ast.Call) \
                        and call_plain_name(item.context_expr) == "open" \
                        and isinstance(item.optional_vars, ast.Name):
                    out.add(item.optional_vars.id)
    return out


def _payload_hazard(arg: ast.expr, nested: set[str], handles: set[str],
                    comms: set[str]) -> str | None:
    """Describe why ``arg`` cannot cross a process boundary, if it can't."""
    if isinstance(arg, ast.Lambda):
        return "a lambda (functions defined inside another function do not pickle)"
    if isinstance(arg, ast.GeneratorExp):
        return "a generator expression (generators do not pickle)"
    if isinstance(arg, ast.Call) and call_plain_name(arg) == "open":
        return "an open file handle (OS handles do not pickle)"
    if isinstance(arg, ast.Name):
        if arg.id in nested:
            return (f"the nested function '{arg.id}' "
                    "(functions defined inside another function do not pickle)")
        if arg.id in handles:
            return f"the open file handle '{arg.id}' (OS handles do not pickle)"
        if arg.id in comms:
            return (f"the communicator '{arg.id}' "
                    "(communicators are rank-local runtime objects)")
    return None


def rule_portability(model: ModuleModel) -> list[Finding]:
    findings: list[Finding] = []
    mutable_globals = _module_mutable_globals(model.tree)

    for info in model.functions:
        fn = info.node
        nested = _nested_def_names(fn)
        handles = _open_handle_names(fn)
        local = assigned_names(fn)

        # ---- SPMD703: closures handed to the spmd() / launch() launcher ---
        for node in own_nodes(fn):
            if not isinstance(node, ast.Call):
                continue
            callee = call_plain_name(node) or call_method_name(node)
            if callee not in ("spmd", "launch"):  # job.launch starts every engine
                continue
            for arg in list(node.args) + [kw.value for kw in node.keywords]:
                what = None
                if isinstance(arg, ast.Lambda):
                    what = "a lambda"
                elif isinstance(arg, ast.Name) and arg.id in nested:
                    what = f"the nested function '{arg.id}'"
                if what is not None:
                    findings.append(Finding(
                        model.path, arg.lineno, arg.col_offset, "SPMD703",
                        f"{what} is passed to the spmd() launcher: closures "
                        "cannot be pickled, so the job cannot start under a "
                        "process backend; use a module-level function and "
                        "pass data through spmd()'s *args/**kwargs",
                        function=info.name,
                    ))

        if not info.is_spmd:
            continue

        # ---- SPMD701: writes to module-level mutable state ---------------
        declared_global: set[str] = set()
        for node in own_nodes(fn):
            if isinstance(node, ast.Global):
                declared_global.update(node.names)
        visible_globals = (mutable_globals - local) | declared_global

        for node in own_nodes(fn):
            if isinstance(node, ast.Assign):
                for tgt in node.targets:
                    if isinstance(tgt, ast.Name) and tgt.id in declared_global:
                        findings.append(Finding(
                            model.path, tgt.lineno, tgt.col_offset, "SPMD701",
                            f"SPMD function rebinds module global '{tgt.id}': "
                            "under a process backend each rank writes its own "
                            "copy and the update silently vanishes; return "
                            "the value or communicate it explicitly",
                            function=info.name,
                        ))
                    elif isinstance(tgt, ast.Subscript) \
                            and isinstance(tgt.value, ast.Name) \
                            and tgt.value.id in visible_globals:
                        findings.append(Finding(
                            model.path, tgt.lineno, tgt.col_offset, "SPMD701",
                            "SPMD function stores into module-level container "
                            f"'{tgt.value.id}': shared memory under threads, "
                            "a rank-local copy under processes — the write "
                            "does not propagate; return the value or "
                            "communicate it explicitly",
                            function=info.name,
                        ))
            elif isinstance(node, ast.Call):
                meth = call_method_name(node)
                recv = receiver_name(node)
                if meth in _MUTATING_METHODS and recv is not None \
                        and recv in visible_globals:
                    findings.append(Finding(
                        model.path, node.lineno, node.col_offset, "SPMD701",
                        f"SPMD function mutates module-level container "
                        f"'{recv}.{meth}(...)': shared memory under threads, "
                        "a rank-local copy under processes — the mutation "
                        "does not propagate; return the value or communicate "
                        "it explicitly",
                        function=info.name,
                    ))

        # ---- SPMD702: unpicklable payloads -------------------------------
        comms = set(info.comm_names)
        for node in own_nodes(fn):
            if not isinstance(node, ast.Call):
                continue
            meth = call_method_name(node)
            if meth not in _PAYLOAD_METHODS:
                continue
            payloads = node.args[:1]
            for kw in node.keywords:
                if kw.arg in ("value", "payload", "obj", "sendobj", "data"):
                    payloads.append(kw.value)
            for arg in payloads:
                why = _payload_hazard(arg, nested, handles, comms)
                if why is not None:
                    findings.append(Finding(
                        model.path, arg.lineno, arg.col_offset, "SPMD702",
                        f"'{meth}' payload is {why}: a process backend must "
                        "pickle every payload that crosses a rank boundary; "
                        "send plain data instead",
                        function=info.name,
                    ))
    return findings
