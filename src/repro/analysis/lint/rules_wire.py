"""WIRE rules: untrusted-byte taint for the UDP/gateway wire plane.

Every byte that arrives over a socket, an HTTP request body, or a
federation pull is attacker-controlled until a registered validator or
decoder has looked at it. The decoder layer is identified by naming
convention (``decode_*``, ``unpack_*``, ``parse_*``, ``recv_*``,
``read_*``, ``open_*``, ``loads``, ``from_wire``, ``from_bytes``,
``validate``; extendable via ``[tool.ldplint] validators``):

* **WIRE001** — outside the decoder layer, wire-tainted bytes must not
  reach ``struct.unpack``, ``int.from_bytes``, or indexing/slicing.
  Taint is interprocedural: a helper that returns ``sock.recv(...)``
  three modules away taints its callers via the project fixpoint.
* **WIRE002** — inside the decoder layer, integers parsed *out of* the
  wire (struct unpack results, ``int.from_bytes``) are attacker-chosen
  and must be bounds-checked (appear in a comparison, or be clamped by
  ``min``/``max``) before driving a read size, a ``range``, or a slice
  bound. A length prefix used raw is a remote allocation primitive.

Functions that *parse* tainted parameters are not themselves sources:
the return-taint fixpoint only marks functions whose returns derive
from actual receive calls, so ``decode_datagram(data)`` comes out clean
while a helper returning ``sock.recv(...)`` stays tainted.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.lint.core import FileContext, Finding, Rule, register
from repro.analysis.lint.dataflow import scope_nodes, terminal_name
from repro.analysis.lint.project import ProjectIndex, is_base_wire_source_call

#: struct-style parse entry points whose integer results are wire-chosen.
_UNPACK_ATTRS = frozenset({"unpack", "unpack_from"})

#: Call names that read N bytes when handed an integer argument.
_SIZED_READ_FRAGMENTS = ("recv", "read")


class _WireTaint:
    """Per-function flow-insensitive taint over local names."""

    def __init__(self, project: ProjectIndex) -> None:
        self._project = project

    def tainted_locals(self, scope: ast.AST) -> set[str]:
        """Local names holding wire-derived bytes inside ``scope``."""
        assigns: list[tuple[list[str], ast.expr]] = []
        for node in scope_nodes(scope):
            if not isinstance(node, ast.Assign):
                continue
            names: list[str] = []
            for target in node.targets:
                if isinstance(target, ast.Name):
                    names.append(target.id)
                elif isinstance(target, (ast.Tuple, ast.List)):
                    names.extend(e.id for e in target.elts if isinstance(e, ast.Name))
            if names:
                assigns.append((names, node.value))
        tainted: set[str] = set()
        changed = True
        while changed:
            changed = False
            for names, value in assigns:
                if self.expr_tainted(value, tainted):
                    for name in names:
                        if name not in tainted:
                            tainted.add(name)
                            changed = True
        return tainted

    def expr_tainted(self, expr: ast.expr, tainted: set[str]) -> bool:
        """Whether ``expr`` evaluates to wire-derived, unvalidated bytes."""
        if isinstance(expr, ast.Name):
            return expr.id in tainted
        if isinstance(expr, ast.Call):
            name = terminal_name(expr.func)
            # Passing bytes through a registered decoder launders the
            # taint — unless the callee is itself a receive wrapper
            # (its *output* is still raw wire bytes).
            if self._project.is_decoder(name) and not self._project.function_taints_wire(
                name
            ):
                return False
            if is_base_wire_source_call(expr):
                return True
            if self._project.function_taints_wire(name):
                return True
            if isinstance(expr.func, ast.Attribute):
                # Methods of tainted objects (``data.decode()``) stay tainted.
                return self.expr_tainted(expr.func.value, tainted)
            return False
        if isinstance(expr, (ast.Tuple, ast.List, ast.Set)):
            return any(self.expr_tainted(e, tainted) for e in expr.elts)
        if isinstance(expr, ast.Subscript):
            return self.expr_tainted(expr.value, tainted)
        if isinstance(expr, ast.BinOp):
            return self.expr_tainted(expr.left, tainted) or self.expr_tainted(
                expr.right, tainted
            )
        if isinstance(expr, ast.IfExp):
            return self.expr_tainted(expr.body, tainted) or self.expr_tainted(
                expr.orelse, tainted
            )
        if isinstance(expr, ast.Starred):
            return self.expr_tainted(expr.value, tainted)
        if isinstance(expr, ast.Attribute):
            return self.expr_tainted(expr.value, tainted)
        return False


def _functions(tree: ast.Module) -> Iterator[ast.FunctionDef | ast.AsyncFunctionDef]:
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node


@register
class Wire001UnvalidatedParse(Rule):
    """WIRE001: raw wire bytes parsed outside the decoder layer."""

    id = "WIRE001"
    title = "wire-tainted bytes parsed outside a registered decoder"
    rationale = (
        "Bytes off a socket or HTTP body are attacker-controlled. Indexing "
        "or struct-unpacking them inline scatters input validation across "
        "the codebase; routing them through the decode_*/unpack_* layer "
        "keeps every parse behind the bounds checks WIRE002 audits."
    )

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        """Flag tainted bytes reaching parse/index sinks per function."""
        project = self.index
        assert project is not None
        taint = _WireTaint(project)
        for func in _functions(ctx.tree):
            # The decoder layer is allowed to parse raw bytes; WIRE002
            # audits its bounds discipline instead.
            if project.is_decoder(func.name):
                continue
            tainted = taint.tainted_locals(func)
            if not tainted:
                continue
            yield from self._check_sinks(ctx, func, taint, tainted)

    def _check_sinks(
        self,
        ctx: FileContext,
        func: ast.FunctionDef | ast.AsyncFunctionDef,
        taint: _WireTaint,
        tainted: set[str],
    ) -> Iterator[Finding]:
        for node in scope_nodes(func):
            if isinstance(node, ast.Call):
                name = terminal_name(node.func)
                if name in _UNPACK_ATTRS or name == "from_bytes":
                    for arg in node.args:
                        if taint.expr_tainted(arg, tainted):
                            yield self.finding(
                                ctx,
                                node,
                                f"wire-tainted bytes reach {name}() in "
                                f"{func.name}() without passing a registered "
                                f"decoder/validator first",
                            )
                            break
            elif isinstance(node, ast.Subscript):
                if taint.expr_tainted(node.value, tainted):
                    yield self.finding(
                        ctx,
                        node,
                        f"wire-tainted bytes indexed directly in {func.name}(); "
                        f"route them through a decode_*/unpack_* helper",
                    )


@register
class Wire002UncheckedLength(Rule):
    """WIRE002: wire-decoded integers must be bounds-checked before use."""

    id = "WIRE002"
    title = "length-prefix integer used without a bounds check"
    rationale = (
        "A length prefix is the peer choosing how much memory you allocate "
        "and how long you loop. One compare (or a min/max clamp) against a "
        "protocol limit turns a remote DoS primitive into a parse error."
    )

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        """Flag unchecked wire ints driving reads, ranges or slices."""
        assert self.index is not None
        for func in _functions(ctx.tree):
            wire_ints = self._wire_ints(func)
            if not wire_ints:
                continue
            checked = self._checked_names(func)
            unchecked = wire_ints - checked
            if not unchecked:
                continue
            yield from self._check_uses(ctx, func, unchecked)

    @staticmethod
    def _wire_ints(func: ast.FunctionDef | ast.AsyncFunctionDef) -> set[str]:
        """Names assigned from struct unpack / int.from_bytes results."""
        out: set[str] = set()
        for node in scope_nodes(func):
            if not isinstance(node, ast.Assign):
                continue
            value = node.value
            if not isinstance(value, ast.Call):
                continue
            name = terminal_name(value.func)
            if name not in _UNPACK_ATTRS and name != "from_bytes":
                continue
            for target in node.targets:
                if isinstance(target, ast.Name):
                    out.add(target.id)
                elif isinstance(target, (ast.Tuple, ast.List)):
                    out.update(e.id for e in target.elts if isinstance(e, ast.Name))
        return out

    @staticmethod
    def _checked_names(func: ast.FunctionDef | ast.AsyncFunctionDef) -> set[str]:
        """Names credited with a bounds check: any comparison or min/max."""
        out: set[str] = set()
        for node in scope_nodes(func):
            if isinstance(node, ast.Compare):
                for part in (node.left, *node.comparators):
                    for sub in ast.walk(part):
                        if isinstance(sub, ast.Name):
                            out.add(sub.id)
            elif isinstance(node, ast.Call) and terminal_name(node.func) in {
                "min",
                "max",
            }:
                for arg in node.args:
                    for sub in ast.walk(arg):
                        if isinstance(sub, ast.Name):
                            out.add(sub.id)
        return out

    def _check_uses(
        self,
        ctx: FileContext,
        func: ast.FunctionDef | ast.AsyncFunctionDef,
        unchecked: set[str],
    ) -> Iterator[Finding]:
        for node in scope_nodes(func):
            if isinstance(node, ast.Call):
                name = terminal_name(node.func)
                if name is None:
                    continue
                sized_read = any(f in name.lower() for f in _SIZED_READ_FRAGMENTS)
                if not (sized_read or name == "range"):
                    continue
                for arg in node.args:
                    used = _names_in(arg) & unchecked
                    if used:
                        yield self.finding(
                            ctx,
                            node,
                            f"wire-decoded integer '{sorted(used)[0]}' drives "
                            f"{name}() in {func.name}() without a bounds "
                            f"check; compare it against a protocol limit first",
                        )
                        break
            elif isinstance(node, ast.Subscript):
                used = _names_in(node.slice) & unchecked
                if used:
                    yield self.finding(
                        ctx,
                        node,
                        f"wire-decoded integer '{sorted(used)[0]}' used as a "
                        f"slice bound in {func.name}() without a bounds check",
                    )


def _names_in(expr: ast.expr) -> set[str]:
    """Every bare Name mentioned anywhere inside ``expr``."""
    return {sub.id for sub in ast.walk(expr) if isinstance(sub, ast.Name)}
