"""Rule ``protocol-timeouts``: no unbounded waits on protocol sockets.

Every ``recv_msg`` call site in the socket endpoints (``server.py``,
``worker.py``) must be provably bounded, because an unbounded receive is
how the distributed layer's worst bugs present: the PR 5 truncated-frame
hang and the "server accepts but never welcomes" strand both blocked in
a bare ``recv``.  A call site is accepted when, in lexical order inside
its enclosing function, one of these holds:

1. the *last* ``.settimeout(...)`` call before it passes a non-``None``
   bound (the socket wakes with ``socket.timeout``);
2. the call sits inside a ``try`` whose handlers catch ``socket.timeout``
   / ``TimeoutError`` (the function is written for a bound that an
   earlier layer armed — e.g. ``run_session`` in the worker arms
   ``welcome_timeout`` and treats its expiry as a phantom server);
3. a ``blocking-ok:`` comment earlier in the function documents why an
   unbounded wait is safe (e.g. TCP keepalive bounds a vanished peer, or
   the server's dispatcher closes a connection gone silent past
   ``heartbeat_timeout``, which wakes its reader).

New protocol messages therefore cannot reintroduce an unbounded wait
without either bounding it or writing down the justification where the
next reader will look.
"""

from __future__ import annotations

import ast

from repro.lint.core import Finding, LintTree, SourceFile

NAME = "protocol-timeouts"
DESCRIPTION = (
    "every recv_msg call in the socket endpoints needs a socket timeout, "
    "a socket.timeout handler, or a 'blocking-ok:' justification"
)

ENDPOINT_FILES = (
    "orchestrator/backends/server.py",
    "orchestrator/backends/worker.py",
)

#: Exception names that prove the function expects a timeout to fire.
_TIMEOUT_HANDLERS = {"timeout", "TimeoutError"}


def _exception_names(handler: ast.ExceptHandler) -> set[str]:
    """Leaf names of the exception types an ``except`` clause catches."""
    names: set[str] = set()
    node = handler.type
    if node is None:
        return names
    parts = node.elts if isinstance(node, ast.Tuple) else [node]
    for part in parts:
        if isinstance(part, ast.Attribute):
            names.add(part.attr)
        elif isinstance(part, ast.Name):
            names.add(part.id)
    return names


def _recv_calls(func: ast.AST) -> list[ast.Call]:
    calls = []
    for node in ast.walk(func):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "recv_msg"
        ):
            calls.append(node)
    return calls


def _last_settimeout_arg(func: ast.AST, before_line: int) -> ast.AST | None:
    """The argument of the last ``.settimeout(...)`` call before the line
    (``None`` when the function never sets one that early)."""
    best_line = -1
    best_arg: ast.AST | None = None
    for node in ast.walk(func):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "settimeout"
            and node.args
            and node.lineno <= before_line
            and node.lineno > best_line
        ):
            best_line = node.lineno
            best_arg = node.args[0]
    return best_arg


def _in_timeout_try(func: ast.AST, call: ast.Call) -> bool:
    for node in ast.walk(func):
        if not isinstance(node, ast.Try):
            continue
        if not any(call is sub for sub in ast.walk(node)):
            continue
        for handler in node.handlers:
            if _exception_names(handler) & _TIMEOUT_HANDLERS:
                return True
    return False


def _has_blocking_ok(src: SourceFile, func: ast.AST, before_line: int) -> bool:
    start = getattr(func, "lineno", 1)
    for line in src.lines[start - 1 : before_line]:
        if "blocking-ok:" in line:
            return True
    return False


def check(tree: LintTree) -> list[Finding]:
    findings: list[Finding] = []
    for rel in ENDPOINT_FILES:
        src = tree.get(rel)
        if src is None:
            continue
        for node in ast.walk(src.tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for call in _recv_calls(node):
                bound = _last_settimeout_arg(node, call.lineno)
                if bound is not None and not (
                    isinstance(bound, ast.Constant) and bound.value is None
                ):
                    continue  # a live non-None socket timeout governs it
                if _in_timeout_try(node, call):
                    continue  # the function handles the timeout expiry
                if _has_blocking_ok(src, node, call.lineno):
                    continue  # documented deliberate blocking wait
                findings.append(
                    Finding(
                        rule=NAME,
                        path=rel,
                        line=call.lineno,
                        symbol=node.name,
                        message=(
                            "unbounded recv_msg: set a socket timeout "
                            "(`.settimeout(bound)`), handle socket.timeout, "
                            "or justify with a 'blocking-ok: <reason>' "
                            "comment earlier in the function"
                        ),
                    )
                )
    return findings
