"""The gateway's live state store: per-node latest values, LWW-merged.

The base station verifies readings; this store turns that verified
stream into *queryable state*. One :class:`GatewayStateStore` holds, for
every source node it has ever heard of, the latest accepted reading
(last-write-wins), a bounded recent history, and a monotonically
increasing *cursor* that versions the merged view — the resume token of
the ``/updates`` incremental stream (:mod:`repro.gateway.api`).

Merge semantics are a state-based LWW register map, the same design the
distributed-sensor-hub reference uses for its global sensor map:

* every entry carries ``(time, seq, origin)`` — acceptance time at the
  ingesting gateway, that gateway's per-origin monotone sequence number,
  and the gateway id;
* entries for the same node are totally ordered by that triple
  (lexicographically), so merge is commutative, associative and
  idempotent — two gateways exchanging entries in any order converge to
  identical per-node state;
* a per-origin **version vector** (highest ``seq`` applied per gateway
  id) summarizes what a store has seen; federation peers compare
  vectors and pull only what is missing
  (:mod:`repro.gateway.federation`).

The store is thread-safe: the HTTP server reads it from handler threads
while the deployment driver ingests from the protocol thread, and
long-pollers block on its condition variable until the cursor moves.
"""

from __future__ import annotations

import math
import threading
from collections import deque
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Iterable

from repro.telemetry.registry import MetricsRegistry

if TYPE_CHECKING:  # pragma: no cover
    from repro.protocol.base_station import DeliveredReading

__all__ = ["StateEntry", "GatewayStateStore", "parse_region", "RegionSpec"]


@dataclass(frozen=True)
class StateEntry:
    """One node's reading as merged state (immutable, wire-serializable)."""

    node: int
    payload: bytes
    time: float
    origin: str
    seq: int
    encrypted: bool

    @property
    def lww_key(self) -> tuple[float, int, str]:
        """The total order merges decide by: ``(time, seq, origin)``."""
        return (self.time, self.seq, self.origin)

    def to_wire(self) -> dict:
        """JSON-serializable form (payload hex-encoded, never truncated)."""
        wire = {
            "node": self.node,
            "payload": self.payload.hex(),
            "time": self.time,
            "origin": self.origin,
            "seq": self.seq,
            "encrypted": self.encrypted,
        }
        text = _printable(self.payload)
        if text is not None:
            wire["payload_text"] = text
        return wire

    @classmethod
    def from_wire(cls, wire: dict) -> "StateEntry":
        """Parse and validate one wire dict (raises ``ValueError``).

        ``time`` must be finite: a NaN never loses an LWW comparison, so
        one NaN entry would pin its node forever.
        """
        try:
            node = int(wire["node"])
            payload = bytes.fromhex(str(wire["payload"]))
            time = float(wire["time"])
            origin = str(wire["origin"])
            seq = int(wire["seq"])
            encrypted = bool(wire["encrypted"])
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise ValueError(f"malformed state entry: {exc}") from exc
        if node < 0 or seq < 1 or not origin or not math.isfinite(time):
            raise ValueError(f"malformed state entry: node={node} seq={seq} time={time}")
        return cls(node, payload, time, origin, seq, encrypted)


def _printable(payload: bytes) -> str | None:
    """``payload`` as text if it is printable ASCII, else ``None``."""
    try:
        text = payload.decode("ascii")
    except UnicodeDecodeError:
        return None
    return text if text.isprintable() else None


@dataclass(frozen=True)
class RegionSpec:
    """A gateway's slice of the mesh: which source ids it ingests."""

    description: str
    predicate: Callable[[int], bool]

    def owns(self, node_id: int) -> bool:
        """Whether ``node_id``'s readings belong to this region."""
        return self.predicate(node_id)


def parse_region(spec: str) -> RegionSpec:
    """Parse a region expression into a :class:`RegionSpec`.

    Three forms:

    * ``all`` — the gateway owns every source (single-gateway default);
    * ``mod:K/R`` — sources whose ``id % R == K`` (round-robin sharding,
      e.g. ``mod:0/2`` and ``mod:1/2`` split a mesh between two
      gateways);
    * ``range:LO-HI`` — sources with ``LO <= id <= HI`` (geographic /
      contiguous-id sharding).

    Raises:
        ValueError: unrecognized or inconsistent expression.
    """
    spec = spec.strip()
    if spec == "all":
        return RegionSpec("all", lambda _nid: True)
    if spec.startswith("mod:"):
        try:
            k_text, r_text = spec[len("mod:"):].split("/", 1)
            k, r = int(k_text), int(r_text)
        except ValueError as exc:
            raise ValueError(f"bad region {spec!r}: expected mod:K/R") from exc
        if r < 1 or not 0 <= k < r:
            raise ValueError(f"bad region {spec!r}: need 0 <= K < R")
        return RegionSpec(spec, lambda nid, k=k, r=r: nid % r == k)
    if spec.startswith("range:"):
        try:
            lo_text, hi_text = spec[len("range:"):].split("-", 1)
            lo, hi = int(lo_text), int(hi_text)
        except ValueError as exc:
            raise ValueError(f"bad region {spec!r}: expected range:LO-HI") from exc
        if lo > hi:
            raise ValueError(f"bad region {spec!r}: LO must be <= HI")
        return RegionSpec(spec, lambda nid, lo=lo, hi=hi: lo <= nid <= hi)
    raise ValueError(f"bad region {spec!r}: use all, mod:K/R or range:LO-HI")


class GatewayStateStore:
    """Thread-safe LWW map of per-node latest readings, with history.

    ``registry`` receives the ``gateway.*`` store metrics (pass the
    deployment's ``trace.registry`` to co-locate them with the
    mesh's counters; omitted, the store owns a private registry).
    """

    def __init__(
        self,
        gateway_id: str,
        region: RegionSpec | None = None,
        history_limit: int = 32,
        update_log_limit: int = 4096,
        registry: MetricsRegistry | None = None,
    ) -> None:
        """``gateway_id`` must be unique across the federation: it names
        this store's origin in every entry it mints and keys the version
        vector."""
        if not gateway_id:
            raise ValueError("gateway_id must be non-empty")
        if history_limit < 1 or update_log_limit < 1:
            raise ValueError("history_limit and update_log_limit must be >= 1")
        self.gateway_id = gateway_id
        self.region = region or parse_region("all")
        self.registry = registry if registry is not None else MetricsRegistry()
        self._lock = threading.RLock()
        self._changed = threading.Condition(self._lock)
        #: node id -> current LWW winner.
        self._latest: dict[int, StateEntry] = {}  # guarded-by: _lock
        #: node id -> recent applied entries, oldest first, bounded.
        self._history: dict[int, deque[StateEntry]] = {}  # guarded-by: _lock
        self._history_limit = history_limit
        #: origin gateway id -> highest seq applied from it.
        self._vector: dict[str, int] = {}  # guarded-by: _lock
        #: This gateway's own monotone sequence counter.
        self._seq = 0  # guarded-by: _lock
        #: Global apply counter — the merged view's version / resume cursor.
        self._cursor = 0  # guarded-by: _lock
        #: Recent ``(cursor, entry)`` pairs, the /updates replay window.
        self._updates: deque[tuple[int, StateEntry]] = deque(  # guarded-by: _lock
            maxlen=update_log_limit
        )
        #: node id -> eviction tombstone time: revoked/departed nodes.
        #: Entries at or before the tombstone are suppressed (vector still
        #: advances); a strictly newer reading reinstates the node.
        self._evicted: dict[int, float] = {}  # guarded-by: _lock

    # -- ingest (the base station's delivery stream) ------------------------

    def ingest(self, reading: "DeliveredReading") -> bool:
        """Consume one verified reading from the local base station.

        This is the callable registered with
        :meth:`repro.protocol.base_station.BaseStationAgent.add_delivery_listener`.
        Readings from sources outside the owned region are counted and
        dropped — a federation peer owns them. Returns whether the
        reading was applied.
        """
        if not self.region.owns(reading.source):
            self.registry.inc("gateway.ingest.filtered")
            return False
        with self._lock:
            self._seq += 1
            entry = StateEntry(
                node=reading.source,
                payload=bytes(reading.data),
                time=reading.time,
                origin=self.gateway_id,
                seq=self._seq,
                encrypted=reading.was_encrypted,
            )
            self.registry.inc("gateway.ingest.readings")
            return self._apply(entry)

    # -- merge (federation and ingest share one apply path) -----------------

    def merge(self, entries: Iterable[StateEntry]) -> tuple[int, int]:
        """Merge foreign entries; returns ``(applied, stale)`` counts.

        Idempotent: an entry already covered by the version vector is
        stale by definition, so replaying a delta is harmless. Entries
        are applied in ascending per-origin sequence order — the vector
        advances one applied entry at a time, so a batch whose winners
        arrive keyed by node id (the :meth:`entries_since` order) never
        self-invalidates.
        """
        applied = stale = 0
        with self._lock:
            for entry in sorted(entries, key=lambda e: (e.origin, e.seq)):
                if self._apply(entry):
                    applied += 1
                else:
                    stale += 1
        return applied, stale

    def _apply(self, entry: StateEntry) -> bool:  # guarded-by: _lock
        """Apply one entry under the lock; returns whether it was new."""
        if entry.seq <= self._vector.get(entry.origin, 0):
            self.registry.inc("gateway.store.stale")
            return False
        tombstone = self._evicted.get(entry.node)
        if tombstone is not None:
            if entry.time <= tombstone:
                # Evicted node, pre-eviction reading: advance the vector
                # (so peers stop offering it) but serve no state from it.
                self._vector[entry.origin] = entry.seq
                self.registry.inc("gateway.store.suppressed")
                return False
            # Strictly newer reading: the node re-joined; reinstate it.
            del self._evicted[entry.node]
        self._vector[entry.origin] = entry.seq
        history = self._history.get(entry.node)
        if history is None:
            history = self._history[entry.node] = deque(maxlen=self._history_limit)
        history.append(entry)
        current = self._latest.get(entry.node)
        if current is None or entry.lww_key > current.lww_key:
            self._latest[entry.node] = entry
        self._cursor += 1
        self._updates.append((self._cursor, entry))
        self.registry.inc("gateway.store.applied")
        self.registry.gauge("gateway.store.nodes", len(self._latest))
        self.registry.gauge("gateway.store.cursor", self._cursor)
        self._changed.notify_all()
        return True

    # -- eviction (lifecycle: revoked and departed nodes) --------------------

    def evict(self, node_id: int, time: float | None = None) -> bool:
        """Drop ``node_id``'s state and tombstone it; returns whether state fell.

        Called by the lifecycle runtime when a node is revoked or
        permanently departs: long churn runs must not keep serving a
        gone node's last reading, nor grow per-node state without bound.
        The tombstone time defaults to the node's latest applied reading
        (so every known reading is covered); readings *strictly newer*
        than it — a re-join — reinstate the node automatically. Version
        vectors are untouched, so federation convergence is unaffected.

        Idempotent: re-evicting with an older-or-equal time is a no-op.
        """
        with self._lock:
            current = self._latest.get(node_id)
            if time is None:
                time = current.time if current is not None else 0.0
            previous = self._evicted.get(node_id)
            if previous is not None and time <= previous:
                return False
            self._evicted[node_id] = float(time)
            removed = self._drop_node_state(node_id)
            self.registry.inc("gateway.store.evicted")
            return removed

    def apply_evictions(self, tombstones: dict[int, float]) -> int:
        """Merge a peer's eviction tombstones; returns how many advanced.

        Tombstones merge by max-time — commutative, associative,
        idempotent, like the entry merge — so eviction propagates
        through the same pull exchange as state
        (:mod:`repro.gateway.federation`).
        """
        advanced = 0
        with self._lock:
            for node_id, time in tombstones.items():
                previous = self._evicted.get(node_id)
                if previous is not None and time <= previous:
                    continue
                current = self._latest.get(node_id)
                if current is not None and current.time > time:
                    # Local state already outruns the tombstone: the node
                    # re-joined from this store's perspective.
                    continue
                self._evicted[node_id] = float(time)
                if self._drop_node_state(node_id):
                    self.registry.inc("gateway.store.evicted")
                advanced += 1
        return advanced

    def evictions_snapshot(self) -> dict[int, float]:
        """Copy of the eviction tombstones (node id -> tombstone time)."""
        with self._lock:
            return dict(self._evicted)

    def _drop_node_state(self, node_id: int) -> bool:  # guarded-by: _lock
        """Remove served state for ``node_id``; returns whether any existed."""
        removed = self._latest.pop(node_id, None) is not None
        self._history.pop(node_id, None)
        if removed:
            self.registry.gauge("gateway.store.nodes", len(self._latest))
            self._changed.notify_all()
        return removed

    # -- queries (the HTTP API reads exactly these) -------------------------

    @property
    def cursor(self) -> int:
        """Current version of the merged view (monotone)."""
        with self._lock:
            return self._cursor

    def vector_snapshot(self) -> dict[str, int]:
        """Copy of the version vector (origin id -> highest seq applied)."""
        with self._lock:
            return dict(self._vector)

    def node_ids(self) -> list[int]:
        """Sorted ids of every node with state."""
        with self._lock:
            return sorted(self._latest)

    def latest(self, node_id: int) -> StateEntry | None:
        """Current LWW winner for ``node_id`` (``None`` if never heard)."""
        with self._lock:
            return self._latest.get(node_id)

    def node_history(self, node_id: int) -> list[StateEntry]:
        """Recent applied entries for ``node_id``, oldest first, bounded."""
        with self._lock:
            return list(self._history.get(node_id, ()))

    def snapshot(self) -> list[StateEntry]:
        """Every node's latest entry, sorted by node id."""
        with self._lock:
            return [self._latest[nid] for nid in sorted(self._latest)]

    def snapshot_with_cursor(self) -> tuple[list[StateEntry], int]:
        """Atomic ``(snapshot, cursor)`` pair under one lock acquisition.

        ``/nodes`` pairs the full snapshot with a resume cursor for the
        ``/updates`` stream; reading them in two separate lock
        acquisitions can hand out a cursor newer than the snapshot and
        silently skip the in-between updates on resume.
        """
        with self._lock:
            return [self._latest[nid] for nid in sorted(self._latest)], self._cursor

    def digest(self) -> dict:
        """O(1) summary: identity, version vector, node count, cursor."""
        with self._lock:
            return {
                "gateway": self.gateway_id,
                "region": self.region.description,
                "vector": dict(self._vector),
                "nodes": len(self._latest),
                "cursor": self._cursor,
                "evicted": len(self._evicted),
            }

    def entries_since(self, vector: dict[str, int]) -> list[StateEntry]:
        """The LWW winners a peer with ``vector`` has not seen yet.

        Exchanging winners only (never the bounded histories) is
        sufficient for the federation goal — identical per-node *latest*
        state everywhere — because merge is a join on the LWW order.
        """
        with self._lock:
            return [
                entry
                for nid in sorted(self._latest)
                if (entry := self._latest[nid]).seq > int(vector.get(entry.origin, 0))
            ]

    def recent(self, limit: int = 64, node_id: int | None = None) -> list[StateEntry]:
        """The most recent applied readings, oldest first, bounded.

        Backs ``GET /readings``: the tail of the update log, optionally
        filtered to one source node. Bounded by the update-log window —
        this is a recency view, not an archive.
        """
        if limit < 1:
            raise ValueError("limit must be >= 1")
        with self._lock:
            picked = [
                entry
                for _, entry in self._updates
                if node_id is None or entry.node == node_id
            ]
            return picked[-limit:]

    # -- the incremental update stream --------------------------------------

    def updates_since(self, cursor: int, limit: int = 256) -> dict:
        """Entries applied after ``cursor``, oldest first.

        Returns ``{"cursor": new_cursor, "updates": [...], "resync":
        bool}``. ``resync`` is true when ``cursor`` predates the bounded
        replay window — the client missed updates and must re-read
        ``/nodes`` before resuming from the returned cursor.
        """
        with self._lock:
            if cursor >= self._cursor:
                return {"cursor": self._cursor, "updates": [], "resync": False}
            # The client missed evicted entries when its cursor predates
            # the oldest one still in the replay window (minus one:
            # cursor N means "has seen entry N").
            resync = bool(self._updates) and cursor < self._updates[0][0] - 1
            picked = [(c, e) for c, e in self._updates if c > cursor][:limit]
            new_cursor = picked[-1][0] if picked else self._cursor
            self.registry.inc("gateway.stream.updates", len(picked))
            return {
                "cursor": new_cursor,
                "updates": [e.to_wire() for _, e in picked],
                "resync": resync,
            }

    def wait_for_updates(self, cursor: int, timeout_s: float) -> bool:
        """Block until the cursor moves past ``cursor`` (long-poll park).

        Returns whether new updates arrived within ``timeout_s``.
        """
        deadline_budget = max(0.0, timeout_s)
        with self._changed:
            if self._cursor > cursor:
                return True
            self._changed.wait(deadline_budget)
            return self._cursor > cursor

    def stats(self) -> dict:
        """O(1) counters for /status: applied, nodes, cursor, vector size."""
        with self._lock:
            return {
                "gateway": self.gateway_id,
                "region": self.region.description,
                "nodes": len(self._latest),
                "cursor": self._cursor,
                "origins": len(self._vector),
            }
