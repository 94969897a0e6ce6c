"""CONC rules: lock discipline for the threaded gateway/runtime code.

The gateway query plane (PRs 6–8) put real threads into the tree: HTTP
handler threads read state the deployment driver writes and a federation
loop mutates the store. These rules enforce the repo's locking
conventions statically:

* **CONC001** — fields annotated ``# guarded-by: <lock>`` may only be
  read or written inside ``with self.<lock>`` (a ``Condition`` built on
  the lock counts; holding the condition *is* holding the lock). A
  method whose ``def`` line carries ``# guarded-by: <lock>`` documents
  "callers hold the lock": its body is checked as if the lock were
  held, and — interprocedurally — every call to it from the same class
  must itself be under the lock.
* **CONC002** — no blocking operation while holding a lock: socket
  ``recv``/``accept``, ``subprocess``, ``time.sleep``, ``urlopen`` and
  any project function that (transitively, via the call graph) reaches
  one. A handler thread parked on I/O inside a critical section stalls
  every other thread at the door.
* **CONC003** — ``threading.Thread`` must be constructed with an
  explicit ``daemon=`` or be ``join``-ed somewhere in the module: a
  thread with neither leaks past shutdown and hangs interpreter exit.

Nested ``def``/``lambda`` bodies are skipped when tracking held locks —
a closure created under a lock does not *run* under it.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.lint.core import FileContext, Finding, Rule, register
from repro.analysis.lint.dataflow import terminal_name
from repro.analysis.lint.project import ProjectIndex, is_base_blocking_call

#: Attribute/name fragments that mark a with-expression as a mutex even
#: without a visible factory assignment (cross-object acquisitions).
_LOCKY_FRAGMENTS = ("lock", "mutex")


def _with_lock_name(
    item: ast.withitem, class_name: str | None, project: ProjectIndex
) -> str | None:
    """The lock a ``with`` item acquires, canonicalized, or None.

    Recognizes ``with self.<attr>`` when the attr is a known lock/
    condition of the enclosing class or is named like a lock, and bare
    ``with <name>`` / ``with obj.<attr>`` when named like a lock.
    """
    expr = item.context_expr
    if isinstance(expr, ast.Attribute):
        attr = expr.attr
        if (
            isinstance(expr.value, ast.Name)
            and expr.value.id == "self"
            and class_name is not None
        ):
            if attr in project.lock_attrs.get(class_name, set()) or _locky(attr):
                return project.canonical_lock(class_name, attr)
            return None
        return attr if _locky(attr) else None
    if isinstance(expr, ast.Name):
        return expr.id if _locky(expr.id) else None
    return None


def _locky(name: str) -> bool:
    lowered = name.lower()
    return any(fragment in lowered for fragment in _LOCKY_FRAGMENTS)


def _iter_with_held(
    node: ast.AST, held: frozenset[str], class_name: str | None, project: ProjectIndex
) -> Iterator[tuple[ast.AST, frozenset[str]]]:
    """Yield ``(node, held_locks)`` pairs, not descending into nested defs."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        child_held = held
        if isinstance(child, (ast.With, ast.AsyncWith)):
            acquired = {
                name
                for item in child.items
                if (name := _with_lock_name(item, class_name, project)) is not None
            }
            child_held = held | acquired
        yield child, child_held
        yield from _iter_with_held(child, child_held, class_name, project)


@register
class Conc001GuardedField(Rule):
    """CONC001: ``# guarded-by:`` fields only touched under their lock."""

    id = "CONC001"
    title = "guarded field accessed without its declared lock"
    rationale = (
        "A field annotated '# guarded-by: <lock>' is shared between the "
        "protocol driver and HTTP handler threads; one unguarded read is a "
        "torn snapshot waiting for load. The annotation is the contract, "
        "this rule is its enforcement."
    )

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        """Flag guarded-field and holds-lock-method misuse per class."""
        assert self.index is not None
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.ClassDef):
                yield from self._check_class(ctx, node)

    def _check_class(self, ctx: FileContext, cls: ast.ClassDef) -> Iterator[Finding]:
        project = self.index
        assert project is not None
        guarded = project.guarded_fields.get(cls.name, {})
        holds = project.holds_lock_methods(cls.name)
        if not guarded and not holds:
            return
        for method in cls.body:
            if not isinstance(method, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            # Construction is single-threaded by convention: __init__ may
            # initialize guarded fields before the object is shared.
            if method.name == "__init__":
                continue
            base: frozenset[str] = frozenset()
            declared = ctx.guard_comments.get(method.lineno)
            if declared is not None:
                base = frozenset({project.canonical_lock(cls.name, declared)})
            for node, held in _iter_with_held(method, base, cls.name, project):
                yield from self._check_node(ctx, cls, node, held, guarded, holds)

    def _check_node(
        self,
        ctx: FileContext,
        cls: ast.ClassDef,
        node: ast.AST,
        held: frozenset[str],
        guarded: dict[str, str],
        holds: dict[str, str],
    ) -> Iterator[Finding]:
        project = self.index
        assert project is not None
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "self"
        ):
            lock = guarded.get(node.attr)
            if lock is not None and project.canonical_lock(cls.name, lock) not in held:
                yield self.finding(
                    ctx,
                    node,
                    f"{cls.name}.{node.attr} is declared '# guarded-by: {lock}' "
                    f"but is accessed without holding it",
                )
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and isinstance(node.func.value, ast.Name)
            and node.func.value.id == "self"
        ):
            lock = holds.get(node.func.attr)
            if lock is not None and project.canonical_lock(cls.name, lock) not in held:
                yield self.finding(
                    ctx,
                    node,
                    f"{cls.name}.{node.func.attr}() requires callers to hold "
                    f"'{lock}' (its def line says '# guarded-by: {lock}') but is "
                    f"called without it",
                )


@register
class Conc002BlockingUnderLock(Rule):
    """CONC002: no blocking I/O, subprocess or sleep while holding a lock."""

    id = "CONC002"
    title = "blocking call while holding a lock"
    rationale = (
        "A lock held across socket recv/accept, subprocess or sleep turns "
        "one slow peer into a deployment-wide stall: every HTTP handler and "
        "the protocol driver queue on the mutex. Condition.wait is exempt — "
        "it releases the lock while parked."
    )

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        """Flag blocking calls lexically inside with-lock blocks."""
        assert self.index is not None
        for scope, class_name in _scopes_with_class(ctx.tree):
            if isinstance(scope, ast.AsyncFunctionDef):
                continue
            for node, held in _iter_with_held(
                scope, frozenset(), class_name, self.index
            ):
                if not held or not isinstance(node, ast.Call):
                    continue
                blocker = self._blocking_reason(node)
                if blocker is not None:
                    yield self.finding(
                        ctx,
                        node,
                        f"{blocker} while holding lock(s) "
                        f"{', '.join(sorted(held))}; move the blocking work "
                        f"outside the critical section",
                    )

    def _blocking_reason(self, call: ast.Call) -> str | None:
        project = self.index
        assert project is not None
        name = terminal_name(call.func)
        if is_base_blocking_call(call):
            return f"blocking call {name}()"
        if name is not None and project.function_may_block(name):
            return f"call to {name}(), which may block (via the call graph)"
        return None


@register
class Conc003ThreadLifecycle(Rule):
    """CONC003: threads need an explicit daemon flag or a join."""

    id = "CONC003"
    title = "threading.Thread without daemon= or a join"
    rationale = (
        "A non-daemon thread that is never joined outlives its owner: "
        "interpreter shutdown hangs on it and tests leak it between cases. "
        "Decide the lifecycle at construction (daemon=) or own it (join)."
    )

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        """Flag Thread constructions with neither daemon= nor a join."""
        joined, daemoned = self._lifecycle_names(ctx.tree)
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Assign):
                continue
            call = node.value
            if not isinstance(call, ast.Call) or terminal_name(call.func) != "Thread":
                continue
            if any(kw.arg == "daemon" for kw in call.keywords):
                continue
            target_names = {
                terminal_name(t) for t in node.targets if terminal_name(t) is not None
            }
            if target_names & (joined | daemoned):
                continue
            yield self.finding(
                ctx,
                call,
                "threading.Thread without daemon= and never joined in this "
                "module; pass daemon= explicitly or join it on shutdown",
            )

    @staticmethod
    def _lifecycle_names(tree: ast.Module) -> tuple[set[str], set[str]]:
        """Names with a ``.join()`` call / ``.daemon = ...`` write."""
        joined: set[str] = set()
        daemoned: set[str] = set()
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "join"
            ):
                owner = terminal_name(node.func.value)
                if owner is not None:
                    joined.add(owner)
            if isinstance(node, ast.Assign):
                for target in node.targets:
                    if isinstance(target, ast.Attribute) and target.attr == "daemon":
                        owner = terminal_name(target.value)
                        if owner is not None:
                            daemoned.add(owner)
        return joined, daemoned


def _scopes_with_class(
    tree: ast.Module,
) -> Iterator[tuple[ast.FunctionDef | ast.AsyncFunctionDef, str | None]]:
    """Every function definition paired with its enclosing class name."""

    def visit(node: ast.AST, class_name: str | None) -> Iterator[
        tuple[ast.FunctionDef | ast.AsyncFunctionDef, str | None]
    ]:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield child, class_name
                yield from visit(child, class_name)
            elif isinstance(child, ast.ClassDef):
                yield from visit(child, child.name)
            else:
                yield from visit(child, class_name)

    yield from visit(tree, None)
