"""RES rules: OS-resource lifecycle for sockets, files and processes.

The UDP transport binds one datagram socket per node; the gateway
binds a listening HTTP socket and its federation client opens
connections to peers. A resource acquired
on a path that can raise before its release is a leak that only shows
up as exhausted file descriptors under soak load. **RES001** audits
every local acquisition (``socket.socket``, ``create_connection``,
``create_server``, ``accept``, ``open``, ``Process``, ``Pool``,
``Popen`` — plus any project function the fixpoint marks as returning
one of those) and accepts these disciplines:

* a ``with`` statement (never flagged: the acquisition is not an
  assignment);
* ownership transfer: the resource is returned, yielded, stored on
  ``self``/into a container, or handed to a ``register``/``append``-
  style call — someone else now owns the close;
* a ``close``/``terminate``/``join``/``kill``/``shutdown``/``stop``/
  ``release``/``server_close`` call on it (or on the loop variable of a
  ``for`` over it) inside a ``finally`` block.

A release that exists but sits outside any ``finally`` is still
flagged, with a message saying so: straight-line cleanup evaporates on
the first exception between acquire and close.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.lint.core import FileContext, Finding, Rule, register
from repro.analysis.lint.dataflow import scope_nodes, terminal_name
from repro.analysis.lint.project import is_resource_acquisition_call

#: Method names that count as releasing a resource.
_RELEASE_ATTRS = frozenset(
    {"close", "terminate", "join", "kill", "shutdown", "stop", "release", "server_close"}
)

#: Call names that take ownership of a resource passed as an argument.
_TRANSFER_ATTRS = frozenset({"append", "add", "put", "register", "submit"})


@register
class Res001LifecycleLeak(Rule):
    """RES001: acquired resources must be released on every path."""

    id = "RES001"
    title = "resource not released on all paths"
    rationale = (
        "Sockets and worker processes acquired outside a with-block leak "
        "when any statement between acquire and close raises. Under the "
        "soak benchmark that is fd exhaustion; in CI it is a hung worker. "
        "Use a context manager, transfer ownership, or close in finally."
    )

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        """Audit each function's local resource acquisitions."""
        project = self.index
        assert project is not None
        for func in ast.walk(ctx.tree):
            if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            acquisitions = self._acquisitions(func)
            if not acquisitions:
                continue
            escaped = self._escaped_names(func)
            released, released_safely = self._released_names(func)
            for name, node in acquisitions.items():
                if name in escaped:
                    continue
                if name in released_safely:
                    continue
                if name in released:
                    yield self.finding(
                        ctx,
                        node,
                        f"'{name}' in {func.name}() is released only on the "
                        f"straight-line path; move the close into a finally "
                        f"block or use a context manager",
                    )
                else:
                    yield self.finding(
                        ctx,
                        node,
                        f"'{name}' in {func.name}() acquires an OS resource "
                        f"but no close/terminate reaches it on error paths",
                    )

    def _acquisitions(
        self, func: ast.FunctionDef | ast.AsyncFunctionDef
    ) -> dict[str, ast.AST]:
        """Local name -> acquisition site for resource-returning assigns."""
        project = self.index
        assert project is not None
        out: dict[str, ast.AST] = {}
        for node in scope_nodes(func):
            if not isinstance(node, ast.Assign) or len(node.targets) != 1:
                continue
            target = node.targets[0]
            value = node.value
            call: ast.Call | None = None
            if isinstance(value, ast.Call):
                call = value
            elif isinstance(value, (ast.ListComp, ast.SetComp)) and isinstance(
                value.elt, ast.Call
            ):
                call = value.elt
            if call is None:
                continue
            name = terminal_name(call.func)
            if not (
                is_resource_acquisition_call(call)
                or project.function_returns_resource(name)
            ):
                continue
            if isinstance(target, ast.Name):
                out[target.id] = node
            elif isinstance(target, ast.Tuple) and target.elts:
                first = target.elts[0]
                if isinstance(first, ast.Name):
                    out[first.id] = node
        return out

    @staticmethod
    def _escaped_names(func: ast.FunctionDef | ast.AsyncFunctionDef) -> set[str]:
        """Names whose ownership leaves the function."""
        out: set[str] = set()
        for node in scope_nodes(func):
            if isinstance(node, (ast.Return, ast.Yield)) and node.value is not None:
                out.update(_names_in(node.value))
            elif isinstance(node, ast.Assign):
                for target in node.targets:
                    if isinstance(target, (ast.Attribute, ast.Subscript)):
                        out.update(_names_in(node.value))
            elif isinstance(node, ast.Call):
                name = terminal_name(node.func)
                if name in _TRANSFER_ATTRS:
                    for arg in node.args:
                        out.update(_names_in(arg))
        return out

    def _released_names(
        self, func: ast.FunctionDef | ast.AsyncFunctionDef
    ) -> tuple[set[str], set[str]]:
        """(released anywhere, released under a ``finally``) name sets."""
        anywhere: set[str] = set()
        safely: set[str] = set()
        finally_nodes: set[int] = set()
        for node in scope_nodes(func):
            if isinstance(node, ast.Try):
                for stmt in node.finalbody:
                    for sub in ast.walk(stmt):
                        finally_nodes.add(id(sub))
        for node in scope_nodes(func):
            released = self._release_targets(node, func)
            if not released:
                continue
            anywhere.update(released)
            if id(node) in finally_nodes:
                safely.update(released)
        return anywhere, safely

    @staticmethod
    def _release_targets(
        node: ast.AST, func: ast.FunctionDef | ast.AsyncFunctionDef
    ) -> set[str]:
        """Names a single call node releases (directly or via a for-loop var)."""
        if not (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in _RELEASE_ATTRS
        ):
            return set()
        owner = terminal_name(node.func.value)
        if owner is None:
            return set()
        out = {owner}
        # `for proc in procs: proc.terminate()` releases the collection.
        for loop in scope_nodes(func):
            if not isinstance(loop, ast.For):
                continue
            if isinstance(loop.target, ast.Name) and loop.target.id == owner:
                iter_names = _names_in(loop.iter)
                out.update(iter_names)
        return out


def _names_in(expr: ast.expr) -> set[str]:
    """Every bare Name mentioned anywhere inside ``expr``."""
    return {sub.id for sub in ast.walk(expr) if isinstance(sub, ast.Name)}
