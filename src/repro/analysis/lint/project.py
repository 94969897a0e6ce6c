"""Whole-program index: call graph + interprocedural summaries.

ldplint v1 reasoned one file at a time (plus KEY002's name-keyed
"call-graph-lite"). The concurrency/wire/resource rules need more: a
pull body read in ``gateway/federation.py`` is parsed in
``gateway/store.py``, a lock acquired in ``gateway/api.py`` guards
fields declared in ``gateway/store.py``, and a socket bound in one
helper is closed in another. :class:`ProjectIndex` is built **once** per lint run over every
file under analysis and shared by all rules; it provides

* a :class:`CallGraph` — every function/method definition with a stable
  qualified name, linked to its call sites. Resolution is *name-keyed*
  (a call to ``from_wire`` links to every definition of that bare
  name anywhere in the project): deliberately generous, like v1's
  erase-credit matching — a lint must over-approximate reachability,
  never under-approximate it;
* **interprocedural summaries** computed to a fixpoint over that graph:
  which functions return wire-tainted bytes (:attr:`wire_sources`),
  which may block on I/O or sleep (:attr:`blocking`), which return a
  live OS resource (:attr:`resource_returners`), and which return key
  material (:attr:`key_returners`);
* project-wide attribute facts: ``# guarded-by:`` lock annotations,
  lock-typed attributes, Condition-over-lock aliases, erased key
  attributes (the KEY002 credit set).

The index is conservative in the lint direction for *sources* (a value
is assumed tainted if any same-named callee could taint it) and
conservative in the quiet direction for *sinks* (a finding needs a
syntactically certain sink), which keeps the false-positive rate
workable on a ~130-module tree.
"""

from __future__ import annotations

import ast
import io
import re
import tokenize
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Iterator

from repro.analysis.lint.dataflow import is_key_producer_call, terminal_name

if TYPE_CHECKING:  # pragma: no cover
    from repro.analysis.lint.core import FileContext

__all__ = [
    "CallGraph",
    "FunctionInfo",
    "ProjectIndex",
    "GUARD_COMMENT_RE",
    "is_base_blocking_call",
    "is_base_wire_source_call",
    "is_decoder_name",
    "is_resource_acquisition_call",
    "parse_guard_comments",
]

#: ``# guarded-by: <lock>`` — declares that a field may only be touched
#: while holding ``self.<lock>``, or (on a ``def`` line) that a method's
#: callers already hold it. Catalogued in docs/ANALYSIS.md.
GUARD_COMMENT_RE = re.compile(r"#\s*guarded-by:\s*([A-Za-z_][A-Za-z0-9_]*)")

#: Functions allowed to parse raw wire bytes: the registered
#: validator/decoder layer. Matched on the bare name with leading
#: underscores stripped, so ``_recv_exact`` counts as ``recv_*``.
_DECODER_NAME_RE = re.compile(
    r"^(decode_|unpack_|parse_|recv_|read_|open_|loads?$|from_wire$|from_bytes$|validate)"
)

#: Base wire-taint sources: socket reads and HTTP request/response bodies.
_RECV_METHODS = frozenset({"recv", "recvfrom", "recv_into", "recv_bytes"})
_READER_OWNERS = frozenset({"rfile", "response", "resp"})

#: Base blocking operations (never allowed while holding a lock).
_BLOCKING_METHODS = frozenset({"recv", "recvfrom", "recv_into", "accept", "sendall"})
_BLOCKING_SUBPROCESS = frozenset({"run", "Popen", "call", "check_call", "check_output"})

#: Constructors that acquire an OS resource the caller must release.
_RESOURCE_FUNCS = frozenset(
    {"socket", "create_connection", "create_server", "open", "Process", "Pool", "Popen"}
)

#: Lock-ish constructors for CONC lock-attribute discovery.
_LOCK_FACTORIES = frozenset({"Lock", "RLock", "Condition", "Semaphore", "BoundedSemaphore"})


def is_decoder_name(name: str | None, extra: frozenset[str] = frozenset()) -> bool:
    """Whether a bare function name marks the validator/decoder layer."""
    if name is None:
        return False
    if name in extra:
        return True
    return _DECODER_NAME_RE.match(name.lstrip("_")) is not None


def parse_guard_comments(source: str) -> dict[int, str]:
    """Map physical line number -> lock name for ``# guarded-by:`` comments.

    Tokenize-based like suppression parsing: only real comments count.
    """
    out: dict[int, str] = {}
    try:
        for tok in tokenize.generate_tokens(io.StringIO(source).readline):
            if tok.type != tokenize.COMMENT:
                continue
            match = GUARD_COMMENT_RE.search(tok.string)
            if match:
                out[tok.start[0]] = match.group(1)
    except tokenize.TokenError:  # pragma: no cover - ast.parse catches first
        pass
    return out


@dataclass
class FunctionInfo:
    """One function or method definition, project-wide."""

    #: Stable id: ``<logical_path>::<Class.name>`` / ``<logical_path>::<name>``.
    qualname: str
    #: Bare name (call-site resolution key).
    name: str
    #: Logical path of the defining module.
    module: str
    #: Enclosing class name, or None for module-level functions.
    class_name: str | None
    node: ast.FunctionDef | ast.AsyncFunctionDef
    #: Bare names of every call made directly inside this function.
    calls: set[str] = field(default_factory=set)
    #: Lock this function's callers are declared to hold (``# guarded-by:``
    #: on the def line), or None.
    holds_lock: str | None = None


class CallGraph:
    """Name-keyed call graph over every indexed function."""

    def __init__(self, functions: list[FunctionInfo]) -> None:
        """Link call sites to candidate definitions by bare name."""
        self.functions: dict[str, FunctionInfo] = {f.qualname: f for f in functions}
        self.by_name: dict[str, list[FunctionInfo]] = {}
        for info in functions:
            self.by_name.setdefault(info.name, []).append(info)

    def callers(self, qualname: str) -> Iterator[FunctionInfo]:
        """Every function containing a call that may resolve here."""
        target = self.functions.get(qualname)
        if target is None:
            return
        for info in self.functions.values():
            if target.name in info.calls:
                yield info

    def transitive_closure(self, seeds: set[str]) -> set[str]:
        """Qualnames of seeds plus everything that (indirectly) calls them.

        The worklist runs over callers, so a property like "may block"
        seeded at base operations propagates up through every wrapper.
        """
        marked = set(seeds)
        work = list(seeds)
        while work:
            current = work.pop()
            for caller in self.callers(current):
                if caller.qualname not in marked:
                    marked.add(caller.qualname)
                    work.append(caller.qualname)
        return marked


def _called_names(node: ast.AST) -> set[str]:
    """Bare names of every call expression under ``node``."""
    names: set[str] = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Call):
            name = terminal_name(sub.func)
            if name is not None:
                names.add(name)
    return names


def _is_base_wire_source(call: ast.Call) -> bool:
    """Socket/HTTP reads: the points where untrusted bytes enter."""
    func = call.func
    if not isinstance(func, ast.Attribute):
        return False
    if func.attr in _RECV_METHODS:
        return True
    if func.attr in {"read", "readline"}:
        return terminal_name(func.value) in _READER_OWNERS
    return False


def _is_base_blocking(call: ast.Call) -> bool:
    """Blocking I/O or sleep: forbidden while holding a lock."""
    func = call.func
    name = terminal_name(func)
    if isinstance(func, ast.Attribute):
        root = terminal_name(func.value)
        if func.attr in _BLOCKING_METHODS:
            return True
        if root in {"time"} and func.attr == "sleep":
            return True
        if root in {"subprocess"} and func.attr in _BLOCKING_SUBPROCESS:
            return True
        if func.attr == "urlopen":
            return True
    return name in {"urlopen"}


def _is_resource_call(call: ast.Call) -> bool:
    """Constructor/factory calls that acquire an OS resource."""
    name = terminal_name(call.func)
    if name == "accept":
        return True
    return name in _RESOURCE_FUNCS


def is_base_wire_source_call(call: ast.Call) -> bool:
    """Public alias for the WIRE rules: raw socket/HTTP byte reads."""
    return _is_base_wire_source(call)


def is_base_blocking_call(call: ast.Call) -> bool:
    """Public alias for the CONC rules: syntactically blocking calls."""
    return _is_base_blocking(call)


def is_resource_acquisition_call(call: ast.Call) -> bool:
    """Public alias for the RES rules: OS-resource-acquiring calls."""
    return _is_resource_call(call)


def _is_lock_factory(value: ast.expr) -> bool:
    """``threading.Lock()`` / ``RLock()`` / ``Condition(...)`` and kin."""
    return isinstance(value, ast.Call) and terminal_name(value.func) in _LOCK_FACTORIES


def _returned_exprs(node: ast.AST) -> Iterator[ast.expr]:
    """Every non-None return expression under ``node`` (own scope only)."""
    stack = list(ast.iter_child_nodes(node))
    while stack:
        sub = stack.pop()
        if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        if isinstance(sub, ast.Return) and sub.value is not None:
            yield sub.value
        stack.extend(ast.iter_child_nodes(sub))


class _ReturnTaint:
    """Does a function return a value derived from a given base predicate?

    Flow-insensitive per-function: a local is tainted if assigned from a
    base-source call, a call to an already-tainted function, or another
    tainted local; the function is tainted if any ``return`` expression
    is. Run to a project-wide fixpoint by :class:`ProjectIndex`.
    """

    def __init__(
        self, tainted_funcs: set[str], is_base: Callable[[ast.Call], bool]
    ) -> None:
        self._tainted_funcs = tainted_funcs
        self._is_base = is_base

    def returns_tainted(self, info: FunctionInfo) -> bool:
        local = self._tainted_locals(info.node)
        return any(
            self._expr_tainted(expr, local) for expr in _returned_exprs(info.node)
        )

    def _tainted_locals(self, node: ast.AST) -> set[str]:
        assigns: list[tuple[list[str], ast.expr]] = []
        for sub in ast.walk(node):
            if isinstance(sub, ast.Assign):
                names: list[str] = []
                for target in sub.targets:
                    if isinstance(target, ast.Name):
                        names.append(target.id)
                    elif isinstance(target, (ast.Tuple, ast.List)):
                        names.extend(
                            e.id for e in target.elts if isinstance(e, ast.Name)
                        )
                if names:
                    assigns.append((names, sub.value))
        tainted: set[str] = set()
        changed = True
        while changed:
            changed = False
            for names, value in assigns:
                if self._expr_tainted(value, tainted):
                    for name in names:
                        if name not in tainted:
                            tainted.add(name)
                            changed = True
        return tainted

    def _expr_tainted(self, expr: ast.expr, local: set[str]) -> bool:
        if isinstance(expr, ast.Name):
            return expr.id in local
        if isinstance(expr, ast.Call):
            if self._is_base(expr):
                return True
            name = terminal_name(expr.func)
            if name is not None and name in self._tainted_funcs:
                return True
            if isinstance(expr.func, ast.Attribute):
                # A method of a tainted object (``data.decode()``) stays
                # tainted; a function applied to one does not.
                return self._expr_tainted(expr.func.value, local)
            return False
        if isinstance(expr, (ast.Tuple, ast.List)):
            return any(self._expr_tainted(e, local) for e in expr.elts)
        if isinstance(expr, ast.Subscript):
            return self._expr_tainted(expr.value, local)
        if isinstance(expr, ast.BinOp):
            return self._expr_tainted(expr.left, local) or self._expr_tainted(
                expr.right, local
            )
        if isinstance(expr, ast.IfExp):
            return self._expr_tainted(expr.body, local) or self._expr_tainted(
                expr.orelse, local
            )
        if isinstance(expr, ast.Starred):
            return self._expr_tainted(expr.value, local)
        return False


class ProjectIndex:
    """Everything the cross-module rules know about the linted tree."""

    def __init__(
        self, contexts: list["FileContext"], validators: frozenset[str] = frozenset()
    ) -> None:
        """Index every context, then run the summary fixpoints."""
        self.validators = validators
        functions: list[FunctionInfo] = []
        #: Terminal attribute names credited with an ``.erase()`` call.
        self.erased_attrs: set[str] = set()
        #: (logical_path, line, col, class, attr) of key-typed attributes.
        self.key_attrs: list[tuple[str, int, int, str, str]] = []
        #: class name -> {field -> lock name} from ``# guarded-by:``.
        self.guarded_fields: dict[str, dict[str, str]] = {}
        #: class name -> {alias attr -> underlying lock attr} (Condition wraps).
        self.lock_aliases: dict[str, dict[str, str]] = {}
        #: class name -> attrs assigned from a lock factory.
        self.lock_attrs: dict[str, set[str]] = {}

        for ctx in contexts:
            self._index_file(ctx, functions)

        self.call_graph = CallGraph(functions)
        self.wire_sources = self._fixpoint(_is_base_wire_source)
        self.resource_returners = self._fixpoint(_is_resource_call)
        self.key_returners = self._fixpoint(is_key_producer_call)
        self.blocking = self.call_graph.transitive_closure(
            {
                info.qualname
                for info in functions
                if any(
                    isinstance(sub, ast.Call) and _is_base_blocking(sub)
                    for sub in ast.walk(info.node)
                )
                and not isinstance(info.node, ast.AsyncFunctionDef)
            }
        )

    # -- construction --------------------------------------------------------

    def _index_file(self, ctx: "FileContext", functions: list[FunctionInfo]) -> None:
        guards = ctx.guard_comments
        module = ctx.logical_path

        def visit(node: ast.AST, class_name: str | None, prefix: str) -> None:
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    qual = f"{module}::{prefix}{child.name}"
                    functions.append(
                        FunctionInfo(
                            qualname=qual,
                            name=child.name,
                            module=module,
                            class_name=class_name,
                            node=child,
                            calls=_called_names(child),
                            holds_lock=guards.get(child.lineno),
                        )
                    )
                    visit(child, class_name, f"{prefix}{child.name}.")
                elif isinstance(child, ast.ClassDef):
                    self._index_class(ctx, child, guards)
                    visit(child, child.name, f"{prefix}{child.name}.")
                else:
                    visit(child, class_name, prefix)

        visit(ctx.tree, None, "")
        self._index_erasures(ctx.tree)

    def _index_class(
        self, ctx: "FileContext", cls: ast.ClassDef, guards: dict[int, str]
    ) -> None:
        guarded = self.guarded_fields.setdefault(cls.name, {})
        aliases = self.lock_aliases.setdefault(cls.name, {})
        locks = self.lock_attrs.setdefault(cls.name, set())
        for stmt in cls.body:
            # Dataclass-style key attributes (KEY002).
            if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
                if "SymmetricKey" in ast.dump(stmt.annotation):
                    self.key_attrs.append(
                        (ctx.logical_path, stmt.lineno, stmt.col_offset, cls.name, stmt.target.id)
                    )
                guard = guards.get(stmt.lineno)
                if guard is not None:
                    guarded[stmt.target.id] = guard
        for node in ast.walk(cls):
            if not isinstance(node, (ast.Assign, ast.AnnAssign)):
                continue
            target_attr = _self_attr_target(node)
            if target_attr is None:
                continue
            value = node.value
            guard = guards.get(node.lineno)
            if guard is not None:
                guarded.setdefault(target_attr, guard)
            if value is None:
                continue
            if isinstance(value, ast.Call) and _is_lock_factory(value):
                locks.add(target_attr)
                if terminal_name(value.func) == "Condition" and value.args:
                    inner = value.args[0]
                    if (
                        isinstance(inner, ast.Attribute)
                        and isinstance(inner.value, ast.Name)
                        and inner.value.id == "self"
                    ):
                        aliases[target_attr] = inner.attr
            if is_key_producer_call(value):
                self.key_attrs.append(
                    (
                        ctx.logical_path,
                        value.lineno,
                        value.col_offset,
                        cls.name,
                        target_attr,
                    )
                )

    def _index_erasures(self, tree: ast.Module) -> None:
        aliases: dict[str, str] = {}
        erased_names: set[str] = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Assign) and isinstance(node.value, ast.Attribute):
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        aliases[target.id] = node.value.attr
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "erase"
            ):
                owner = node.func.value
                if isinstance(owner, ast.Attribute):
                    self.erased_attrs.add(owner.attr)
                elif isinstance(owner, ast.Name):
                    erased_names.add(owner.id)
        for name in erased_names:
            if name in aliases:
                self.erased_attrs.add(aliases[name])

    def _fixpoint(self, is_base: Callable[[ast.Call], bool]) -> set[str]:
        """Qualnames whose return value derives from ``is_base`` calls."""
        tainted_names: set[str] = set()
        tainted: set[str] = set()
        changed = True
        while changed:
            changed = False
            checker = _ReturnTaint(tainted_names, is_base)
            for info in self.call_graph.functions.values():
                if info.qualname in tainted:
                    continue
                if checker.returns_tainted(info):
                    tainted.add(info.qualname)
                    tainted_names.add(info.name)
                    changed = True
        return tainted

    # -- queries -------------------------------------------------------------

    def is_decoder(self, name: str | None) -> bool:
        """Whether a bare function name belongs to the validator layer."""
        return is_decoder_name(name, self.validators)

    def function_taints_wire(self, name: str | None) -> bool:
        """Whether calling bare name ``name`` may return wire-tainted bytes."""
        if name is None:
            return False
        return any(
            info.qualname in self.wire_sources
            for info in self.call_graph.by_name.get(name, ())
        )

    def function_returns_resource(self, name: str | None) -> bool:
        """Whether calling bare name ``name`` may return a live OS resource."""
        if name is None:
            return False
        return any(
            info.qualname in self.resource_returners
            for info in self.call_graph.by_name.get(name, ())
        )

    def key_returner_names(self) -> frozenset[str]:
        """Bare names of every function returning key material.

        KEY001 feeds these to :class:`~repro.analysis.lint.dataflow.KeyTaint`
        as extra producers, so a wrapper two modules away that returns
        ``derive_cluster_key(...)`` taints its callers' locals too.
        """
        return frozenset(
            self.call_graph.functions[q].name for q in self.key_returners
        )

    def function_may_block(self, name: str | None) -> bool:
        """Whether calling bare name ``name`` may block on I/O or sleep."""
        if name is None:
            return False
        return any(
            info.qualname in self.blocking
            for info in self.call_graph.by_name.get(name, ())
        )

    def canonical_lock(self, class_name: str, attr: str) -> str:
        """Collapse a Condition alias onto its underlying lock attr."""
        return self.lock_aliases.get(class_name, {}).get(attr, attr)

    def holds_lock_methods(self, class_name: str) -> dict[str, str]:
        """Method name -> declared-held lock for one class."""
        return {
            info.name: info.holds_lock
            for info in self.call_graph.functions.values()
            if info.class_name == class_name and info.holds_lock is not None
        }


def _self_attr_target(node: ast.Assign | ast.AnnAssign) -> str | None:
    """``self.<attr>`` assignment target of an Assign/AnnAssign, else None."""
    if isinstance(node, ast.Assign):
        if len(node.targets) != 1:
            return None
        target: ast.expr = node.targets[0]
    else:
        target = node.target
    if (
        isinstance(target, ast.Attribute)
        and isinstance(target.value, ast.Name)
        and target.value.id == "self"
    ):
        return target.attr
    return None
