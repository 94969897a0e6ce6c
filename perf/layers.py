"""Outside-in layer tracer: wall time attributed to the repo's modules.

:class:`LayerTracer` is a context manager. On entry it replaces the
public entry points of each layer with a timing wrapper, and on exit it
puts every original attribute back. Nothing under ``src/`` is edited, so
the simulated code stays free of wall-clock reads (ldplint SIM001).

A wrapper is installed on the name *as the calling module looks it up*.
``repro.protocol.forwarding`` imports ``seal`` by name, so the tracer
wraps ``repro.protocol.forwarding.seal``; wrapping only
``repro.crypto.aead.seal`` would miss every call.

Each wrapped call is a span: layer, start, end and parent span, timed
with ``time.perf_counter_ns``. Self time (span time minus the time of
the spans nested inside it) is summed per layer as the spans close.
Raw spans are kept in memory only when ``span_limit`` > 0, up to that
many, and :meth:`LayerTracer.write_spans` writes them out after the run.
Wall time that no span covers is reported as ``unattributed``.
"""

from __future__ import annotations

import importlib
import inspect
import json
import sys
import time
from array import array
from contextlib import contextmanager
from typing import Any, Callable, Iterator

#: ``(layer, owner, attributes)``: ``owner`` is ``"module"`` or
#: ``"module:Class"``. Timer callbacks of the agent are listed with its
#: public handlers: the event loop calls them directly, and without them
#: their work would be booked to ``runtime.loopback``.
LAYERS: tuple[tuple[str, str, tuple[str, ...]], ...] = (
    ("crypto.aead", "repro.protocol.forwarding", ("seal", "open_")),
    ("crypto.aead", "repro.protocol.messages", ("seal", "open_")),
    # Inside seal/open_: the CTR keystream half of the composition.
    ("crypto.keystream", "repro.crypto.aead", ("ctr_encrypt", "ctr_decrypt")),
    ("crypto.mac", "repro.protocol.agent", ("mac", "verify")),
    ("crypto.mac", "repro.protocol.base_station", ("mac",)),
    (
        "protocol.agent",
        "repro.protocol.agent:ProtocolAgent",
        (
            "on_frame",
            "send_reading",
            "_fire_hello",
            "_broadcast_linkinfo",
            "_reannounce",
            "_finish_setup",
            "_forward_later",
            "_retx_fire",
            "_send_join_resp",
        ),
    ),
    (
        "protocol.base_station",
        "repro.protocol.base_station:BaseStationAgent",
        ("on_frame", "revoke_clusters"),
    ),
    ("protocol.messages", "repro.protocol.messages", ("encode_*", "decode_*")),
    (
        "protocol.forwarding",
        "repro.protocol.agent",
        ("build_inner", "parse_inner", "wrap_hop", "unwrap_hop"),
    ),
    (
        "protocol.forwarding",
        "repro.protocol.base_station",
        ("parse_inner", "unwrap_hop", "open_inner_windowed"),
    ),
    ("protocol.dedup", "repro.protocol.forwarding:DedupCache", ("seen_before", "contains")),
    ("protocol.dedup", "repro.protocol.state:NodeState", ("accept_hop_seq",)),
    ("sim.engine", "repro.sim.engine:EventQueue", ("push", "pop_due")),
    ("sim.engine", "repro.sim.engine:EventHandle", ("cancel",)),
    ("runtime.loopback", "repro.runtime.loopback:LoopbackTransport", ("run", "broadcast", "schedule")),
    ("runtime.faults", "repro.runtime.faults:FaultInjectingTransport", ("broadcast", "schedule")),
    ("runtime.faults", "repro.runtime.faults:_FaultedEndpoint", ("receive",)),
    ("runtime.node", "repro.runtime.node:NodeRuntime", ("receive", "broadcast", "schedule")),
    ("telemetry", "repro.sim.trace:Trace", ("count", "record")),
    ("telemetry", "repro.telemetry.registry:MetricsRegistry", ("inc", "gauge", "observe")),
    ("sim.mobility", "repro.sim.mobility:WaypointDrift", ("step",)),
    ("sim.mobility", "repro.sim.mobility:MobileTopology", ("move", "neighbor_map")),
    ("runtime.cluster", "repro.runtime.cluster:LiveNetwork", ("update_topology",)),
    ("runtime.cluster", "repro.protocol.setup:DeployedProtocol", ("assign_gradient",)),
    ("runtime.lifecycle", "repro.runtime.lifecycle:MobilityDriver", ("_step",)),
    ("runtime.lifecycle", "repro.runtime.lifecycle:ConvergenceTracker", ("_probe", "finalize")),
    (
        "runtime.lifecycle",
        "repro.runtime.lifecycle:ChurnDriver",
        ("_join", "_finalize_join", "_leave", "_revoke", "_decommission", "_refresh_tick"),
    ),
    ("workloads", "repro.workloads.soak:SoakWorkload", ("start", "stats", "_soak_send")),
    ("workloads", "repro.workloads.traffic:ContinuousReporting", ("start", "_tick")),
    ("workloads", "repro.workloads.traffic:_WorkloadBase", ("_send", "window_delivery_ratio")),
    ("gateway.store", "repro.gateway.store:GatewayStateStore", ("ingest",)),
    ("sim.network", "repro.sim.network:Network", ("build",)),
    ("protocol.setup", "repro.protocol.setup", ("provision", "run_key_setup")),
)

#: Every layer name, sorted (the order of the per-layer report).
LAYER_NAMES: tuple[str, ...] = tuple(sorted({layer for layer, _, _ in LAYERS}))


def _resolve(owner: str) -> Any:
    """The module or class named by ``"module"`` / ``"module:Class"``."""
    module_name, _, class_name = owner.partition(":")
    target = importlib.import_module(module_name)
    return getattr(target, class_name) if class_name else target


def _expand(target: Any, names: tuple[str, ...]) -> list[str]:
    """Attribute names on ``target``; ``prefix*`` matches functions defined there."""
    out: list[str] = []
    for name in names:
        if not name.endswith("*"):
            out.append(name)
            continue
        prefix = name[:-1]
        out.extend(
            attr
            for attr, value in sorted(vars(target).items())
            if attr.startswith(prefix)
            and inspect.isfunction(value)
            and value.__module__ == target.__name__
        )
    return out


def entry_points() -> tuple[list[tuple[str, str, Any, str]], list[str]]:
    """Resolve :data:`LAYERS` against this tree.

    Returns ``(layer, owner, owner object, attribute)`` for every entry
    point found, and the ``owner[.attribute]`` names that are missing.
    """
    found: list[tuple[str, str, Any, str]] = []
    missing: list[str] = []
    for layer, owner, names in LAYERS:
        try:
            target = _resolve(owner)
        except (ImportError, AttributeError):
            missing.append(owner)
            continue
        for attr in _expand(target, names):
            if attr in vars(target):
                found.append((layer, owner, target, attr))
            else:
                missing.append(f"{owner}.{attr}")
    return found, missing


def _rewrap(raw: Any, wrap: Callable[[Callable], Callable]) -> Any:
    """Apply ``wrap`` to a function, keeping classmethod/staticmethod descriptors."""
    if isinstance(raw, (classmethod, staticmethod)):
        return type(raw)(wrap(raw.__func__))
    return wrap(raw)


@contextmanager
def patched(owner: Any, attr: str, wrap: Callable[[Callable], Callable]) -> Iterator[None]:
    """Replace ``owner.attr`` by ``wrap(original)`` for the ``with`` block.

    ``attr`` must be defined on ``owner`` itself (not inherited), so the
    exact original object is what goes back on exit.
    """
    raw = vars(owner)[attr]
    setattr(owner, attr, _rewrap(raw, wrap))
    try:
        yield
    finally:
        setattr(owner, attr, raw)


class LayerTracer:
    """Per-layer self time and call counts from outside-in span wrappers."""

    def __init__(self, span_limit: int = 0) -> None:
        """``span_limit`` > 0 keeps up to that many raw spans for
        :meth:`write_spans`; later spans still count, but are not kept."""
        self.span_limit = span_limit
        self.self_ns = [0] * len(LAYER_NAMES)
        self.calls = [0] * len(LAYER_NAMES)
        #: Most live events ever queued in one ``EventQueue``.
        self.peak_pending = 0
        #: Spans past ``span_limit`` that were counted but not kept.
        self.spans_dropped = 0
        #: Targets in :data:`LAYERS` that this tree does not define.
        self.missing: list[str] = []
        # Raw span columns: span id, layer index, start ns, end ns, parent id.
        self._spans = tuple(array("q") for _ in range(5))
        self._stack: list[list[int]] = []
        self._next_id = 0
        self._restore: list[tuple[Any, str, Any]] = []

    # -- installation --------------------------------------------------------

    def __enter__(self) -> "LayerTracer":
        index = {name: i for i, name in enumerate(LAYER_NAMES)}
        found, self.missing = entry_points()
        for name in self.missing:
            print(f"perf: trace target {name} not found; not traced", file=sys.stderr)
        try:
            for layer, owner, target, attr in found:
                raw = vars(target)[attr]
                track = (owner, attr) == ("repro.sim.engine:EventQueue", "push")

                def wrap(fn, layer=index[layer], track=track):
                    return self._span(self._track_pending(fn) if track else fn, layer)

                setattr(target, attr, _rewrap(raw, wrap))
                self._restore.append((target, attr, raw))
        except BaseException:
            self._uninstall()
            raise
        return self

    def __exit__(self, *exc: object) -> None:
        self._uninstall()

    def _uninstall(self) -> None:
        while self._restore:
            target, attr, raw = self._restore.pop()
            setattr(target, attr, raw)

    def _track_pending(self, push: Callable) -> Callable:
        def push_tracking(queue, time, callback):
            handle = push(queue, time, callback)
            self.peak_pending = max(self.peak_pending, len(queue))
            return handle

        return push_tracking

    def _span(self, fn: Callable, layer: int) -> Callable:
        """Wrap ``fn`` so each call is a span of ``layer``."""
        clock = time.perf_counter_ns
        stack = self._stack
        self_ns = self.self_ns
        calls = self.calls
        ids, layers, starts, ends, parents = self._spans

        def traced(*args, **kwargs):
            self._next_id += 1
            # start ns, ns covered by child spans, span id, parent span id
            frame = [clock(), 0, self._next_id, stack[-1][2] if stack else 0]
            stack.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                total = end - frame[0]
                self_ns[layer] += total - frame[1]
                calls[layer] += 1
                if stack:
                    stack[-1][1] += total
                if len(ids) < self.span_limit:
                    ids.append(frame[2])
                    layers.append(layer)
                    starts.append(frame[0])
                    ends.append(end)
                    parents.append(frame[3])
                elif self.span_limit:
                    self.spans_dropped += 1

        return traced

    # -- results -------------------------------------------------------------

    def report(self, wall_s: float) -> dict[str, float]:
        """Per-layer ``self_s``/``share``/``calls`` over ``wall_s`` of traced wall."""
        out: dict[str, float] = {}
        attributed = 0.0
        for i, name in enumerate(LAYER_NAMES):
            self_s = self.self_ns[i] / 1e9
            attributed += self_s
            out[f"{name}.self_s"] = self_s
            out[f"{name}.share"] = self_s / wall_s
            out[f"{name}.calls"] = self.calls[i]
        out["unattributed.self_s"] = wall_s - attributed
        out["unattributed.share"] = (wall_s - attributed) / wall_s
        return out

    def write_spans(self, path: str) -> int:
        """Write the kept spans as JSONL, one object per span; returns the count.

        ``parent`` is the id of the enclosing span, 0 at top level.
        """
        ids, layers, starts, ends, parents = self._spans
        with open(path, "w", encoding="utf-8") as fp:
            for i in range(len(ids)):
                record = {
                    "id": ids[i],
                    "layer": LAYER_NAMES[layers[i]],
                    "start_ns": starts[i],
                    "end_ns": ends[i],
                    "parent": parents[i],
                }
                fp.write(json.dumps(record) + "\n")
        return len(ids)
