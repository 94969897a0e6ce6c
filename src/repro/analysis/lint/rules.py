"""The ldplint rule pack: six security/protocol invariants.

Each rule is ~50 LoC on top of the shared dataflow core
(:mod:`repro.analysis.lint.dataflow`). IDs, rationale and examples are
catalogued in ``docs/ANALYSIS.md``; suppress a deliberate exception with
``# ldplint: disable=<ID>`` plus a justification comment.
"""

from __future__ import annotations

import ast
import re
from typing import Iterator

from repro.analysis.lint.core import FileContext, Finding, Rule, register
from repro.analysis.lint.dataflow import (
    KeyTaint,
    functions_of,
    scope_nodes,
    terminal_name,
)

#: Logging entry points: ``logging.debug(...)``, ``logger.info(...)``, ...
_LOG_METHODS = frozenset(
    {"debug", "info", "warning", "warn", "error", "critical", "exception", "log"}
)
_LOG_ROOTS = frozenset({"logging", "logger", "log", "LOGGER", "LOG"})

#: Trace/telemetry emission methods whose arguments end up in event logs,
#: JSONL exports and metric labels.
_TELEMETRY_METHODS = frozenset(
    {"record", "count", "emit", "inc", "gauge", "set_gauge", "observe", "write"}
)


def _is_log_call(call: ast.Call) -> bool:
    """``logging.x(...)`` / ``logger.x(...)`` style calls."""
    func = call.func
    return (
        isinstance(func, ast.Attribute)
        and func.attr in _LOG_METHODS
        and terminal_name(func.value) in _LOG_ROOTS
    )


def _is_telemetry_call(call: ast.Call) -> bool:
    """Trace/telemetry emission: ``trace.record(...)``, ``registry.inc(...)``."""
    func = call.func
    return isinstance(func, ast.Attribute) and func.attr in _TELEMETRY_METHODS


def _call_arguments(call: ast.Call) -> Iterator[ast.expr]:
    """All positional and keyword argument expressions of a call."""
    yield from call.args
    for kw in call.keywords:
        yield kw.value


@register
class Key001KeyMaterialLeak(Rule):
    """KEY001: key material must not flow into logs, f-strings or telemetry."""

    id = "KEY001"
    title = "key material reaches a log/format/telemetry sink"
    rationale = (
        "An adversary who reads logs or exported telemetry must learn nothing "
        "about keys; a single f-string interpolation of K_m voids Sec. IV's "
        "erasure argument."
    )

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        """Flag tainted expressions appearing in any leak sink.

        Taint is interprocedural: any project function whose return
        value derives from a key producer (the index's key-returner
        fixpoint) taints its callers' locals like a producer would.
        """
        extra = (
            self.index.key_returner_names() if self.index is not None else frozenset()
        )
        for scope in functions_of(ctx.tree):
            taint = KeyTaint(scope, extra_producers=extra)
            yield from self._scan(ctx, scope, taint)

    def _scan(
        self, ctx: FileContext, scope: ast.AST, taint: KeyTaint
    ) -> Iterator[Finding]:
        for node in scope_nodes(scope):
            if isinstance(node, ast.JoinedStr):
                for value in node.values:
                    if isinstance(value, ast.FormattedValue) and taint.is_tainted(
                        value.value
                    ):
                        yield self.finding(
                            ctx, value.value, "key material interpolated into an f-string"
                        )
            elif isinstance(node, ast.Call):
                sink = self._sink_kind(node)
                if sink is None:
                    continue
                for arg in _call_arguments(node):
                    if isinstance(arg, ast.JoinedStr):
                        continue  # flagged by the JoinedStr branch above
                    if taint.is_tainted(arg):
                        yield self.finding(
                            ctx, arg, f"key material passed to {sink}"
                        )

    @staticmethod
    def _sink_kind(call: ast.Call) -> str | None:
        """Classify a call as a leak sink, or None."""
        func = call.func
        if isinstance(func, ast.Name):
            if func.id == "print":
                return "print()"
            if func.id in {"repr", "str", "format"}:
                return f"{func.id}()"
            if func.id == "hexstr":
                return "hexstr() (a log-rendering helper)"
            return None
        if _is_log_call(call):
            return f"logging ({func.attr})"
        if _is_telemetry_call(call):
            return f"Trace/telemetry ({func.attr})"
        return None


@register
class Key002MissingErase(Rule):
    """KEY002: every held ``SymmetricKey`` attribute needs a reachable erase."""

    id = "KEY002"
    title = "key-material attribute with no reachable .erase() call"
    rationale = (
        "Sec. IV-B: K_m is erased once links are established; Sec. IV-E: K_MC "
        "is erased after joining. A key object held in an attribute that no "
        "code path ever erases survives node capture forever."
    )
    project = True

    def finalize(self) -> Iterator[Finding]:
        """Emit one finding per never-erased key attribute.

        Both sides of the check come from the shared project index:
        key-typed attributes (dataclass annotations and producer-call
        assignments) and the erasure credit set, collected once over
        every file in the run rather than per-rule.
        """
        index = self.index
        assert index is not None
        seen: set[tuple[str, str, str]] = set()
        for path, line, col, class_name, attr in index.key_attrs:
            if attr in index.erased_attrs:
                continue
            key = (path, class_name, attr)
            if key in seen:
                continue
            seen.add(key)
            yield Finding(
                self.id,
                path,
                line,
                col,
                f"{class_name}.{attr} holds key material but no code path "
                f"calls .erase() on it",
            )


#: Identifiers that denote MAC tags / digests in comparisons.
_TAG_NAME_RE = re.compile(r"^(.*_)?(tag|mac|digest|hmac|commitment)$")
_DIGEST_METHODS = frozenset({"digest", "hexdigest", "tag"})
_DIGEST_FUNCS = frozenset({"mac", "hmac_sha256", "sha256", "mac_parts"})


@register
class Crypt001NonConstantTimeCompare(Rule):
    """CRYPT001: MAC/digest equality must be constant-time."""

    id = "CRYPT001"
    title = "MAC/digest compared with ==/!="
    rationale = (
        "Early-exit bytes comparison leaks the first differing byte's index "
        "through timing — an oracle that forges tags one byte at a time on a "
        "real mote. Use constant_time_eq/hmac.compare_digest."
    )

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        """Flag Eq/NotEq comparisons where either side is tag-like."""
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Compare):
                continue
            if not any(isinstance(op, (ast.Eq, ast.NotEq)) for op in node.ops):
                continue
            operands = [node.left, *node.comparators]
            # String/None constants mean this is not a byte-tag comparison
            # (``config.mac == "csma"``, ``tag is not None`` idioms).
            if any(
                isinstance(o, ast.Constant) and (o.value is None or isinstance(o.value, str))
                for o in operands
            ):
                continue
            if any(self._tag_like(o) for o in operands):
                yield self.finding(
                    ctx,
                    node,
                    "MAC/digest compared with ==/!=; use "
                    "constant_time_eq (repro.util.bytesutil) or hmac.compare_digest",
                )

    @staticmethod
    def _tag_like(node: ast.expr) -> bool:
        name = terminal_name(node)
        if name is not None and _TAG_NAME_RE.match(name):
            return True
        if isinstance(node, ast.Call):
            func_name = terminal_name(node.func)
            if func_name in _DIGEST_METHODS or func_name in _DIGEST_FUNCS:
                return True
        return False


@register
class Crypt002LiteralCounter(Rule):
    """CRYPT002: CTR counters must come from approved constructors."""

    id = "CRYPT002"
    title = "integer literal used as a CTR counter/nonce"
    rationale = (
        "A (key, counter) pair must never encrypt two messages (Sec. IV-C); "
        "literal counters hardcode exactly that reuse. Counters come from "
        "NodeState.next_hop_seq / next_e2e_counter or the checked "
        "constructors in repro.crypto.modes."
    )

    #: CTR entry points taking ``counter`` as the second positional arg:
    #: the raw mode functions and the AEAD seal/open built on them.
    _CTR_FUNCS = frozenset({"ctr_encrypt", "ctr_decrypt", "seal", "open_"})

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        """Flag literal ``counter`` arguments to the CTR entry points."""
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            if terminal_name(node.func) not in self._CTR_FUNCS:
                continue
            counter: ast.expr | None = None
            if len(node.args) >= 2:
                counter = node.args[1]
            for kw in node.keywords:
                if kw.arg == "counter":
                    counter = kw.value
            if counter is not None and self._is_int_literal(counter):
                yield self.finding(
                    ctx,
                    counter,
                    "literal CTR counter; use repro.crypto.modes.message_counter() "
                    "or a NodeState.next_hop_seq()/next_e2e_counter() allocation",
                )

    @staticmethod
    def _is_int_literal(node: ast.expr) -> bool:
        if isinstance(node, ast.Constant) and isinstance(node.value, int):
            return True
        return (
            isinstance(node, ast.UnaryOp)
            and isinstance(node.operand, ast.Constant)
            and isinstance(node.operand.value, int)
        )


@register
class Rng001StdlibRandom(Rule):
    """RNG001: no ``random`` module in protocol/crypto code."""

    id = "RNG001"
    title = "stdlib random module in protocol/crypto code"
    rationale = (
        "Protocol randomness is either seeded (sim.rng streams, for "
        "reproducible experiments) or os.urandom (deployment-grade). The "
        "random module is neither: unseeded it breaks determinism, and it is "
        "never cryptographically secure."
    )
    scope = (
        "src/repro/protocol",
        "src/repro/crypto",
        "src/repro/leap",
        "src/repro/randkp",
        "src/repro/baselines",
    )

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        """Flag any import of the stdlib random module."""
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name == "random" or alias.name.startswith("random."):
                        yield self.finding(
                            ctx,
                            node,
                            "stdlib random imported; use the seeded sim.rng "
                            "streams or os.urandom",
                        )
            elif isinstance(node, ast.ImportFrom):
                if node.module == "random" and node.level == 0:
                    yield self.finding(
                        ctx,
                        node,
                        "stdlib random imported; use the seeded sim.rng "
                        "streams or os.urandom",
                    )


@register
class Sim001WallClock(Rule):
    """SIM001: event-time only inside the simulator and protocol."""

    id = "SIM001"
    title = "wall-clock read inside sim/protocol code"
    rationale = (
        "The simulator is a discrete-event machine: the only time is the "
        "event clock. A wall-clock read makes runs irreproducible and skews "
        "every latency metric derived from event timestamps."
    )
    scope = ("src/repro/sim", "src/repro/protocol")

    _WALL_CLOCK = frozenset(
        {
            ("time", "time"),
            ("time", "time_ns"),
            ("time", "monotonic"),
            ("time", "monotonic_ns"),
            ("time", "perf_counter"),
            ("time", "perf_counter_ns"),
            ("datetime", "now"),
            ("datetime", "utcnow"),
            ("datetime", "today"),
            ("date", "today"),
        }
    )

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        """Flag wall-clock attribute calls and bare ``from time import time``."""
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
                root = terminal_name(node.func.value)
                if (root, node.func.attr) in self._WALL_CLOCK:
                    yield self.finding(
                        ctx,
                        node,
                        f"wall-clock read {root}.{node.func.attr}(); sim/protocol "
                        f"code must use the event clock",
                    )
            elif isinstance(node, ast.ImportFrom) and node.module == "time":
                for alias in node.names:
                    if (node.module, alias.name) in self._WALL_CLOCK:
                        yield self.finding(
                            ctx,
                            node,
                            f"wall-clock import time.{alias.name}; sim/protocol "
                            f"code must use the event clock",
                        )
