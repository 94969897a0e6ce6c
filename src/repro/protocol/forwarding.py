"""Secure message forwarding: Steps 1 and 2 of Sec. IV-C.

Step 1 (optional, source only)::

    y1 <- E_{Kencr}(D)          Kencr = F_Ki(0), counter mode, shared ctr
    t1 <- MAC_{Kmac}(y1)        Kmac  = F_Ki(1)
    c1 <- y1 | t1

Step 2 (every hop)::

    τ  <- time()
    y2 <- E_{K'encr}(c1, τ, CID)
    t2 <- MAC_{K'mac}(y2)
    c2 <- CID | y2 | t2

Step 1's counter is *not transmitted* — both ends maintain it, and the
base station recovers desynchronization by trying a small window of
counter values (exactly the paper's suggestion). Step 2 seals under a
per-hop-sender subkey ``F(K_c, "hop" | sender)`` with an explicit sequence
number in the clear header, so many cluster members can transmit under one
cluster key without counter coordination; the header (CID, sender, seq,
hop count) rides as authenticated associated data.

The inner blob ``c1`` is invariant along the path: intermediate nodes use
it for duplicate suppression, and — when Step 1 is disabled — can "peek"
at the plaintext reading for data-fusion decisions (Sec. II).

A hop frame is broadcast once and received by every neighbour.
:func:`wrap_hop` seals it, which primes the open memo of
:mod:`repro.crypto.aead`, and each receiver's :func:`unwrap_hop` opens
it through :func:`~repro.crypto.aead.open_`, served by that memo after
comparing the receiver's own tag. :func:`unwrap_hop` returns ``τ``
rather than judging it, so every receiver checks freshness against its
own clock (:func:`check_fresh`). On the loopback fan-out one
:class:`~repro.protocol.agent.DataReception` unwraps a frame once for
all of its receivers whose cluster key equals the one that verified it.
"""

from __future__ import annotations

import struct
from collections import OrderedDict
from dataclasses import dataclass
from functools import lru_cache

from repro.crypto.aead import AeadConfig, AuthenticationError, open_, seal
from repro.crypto.kdf import prf
from repro.crypto.sha256 import sha256_fast
from repro.protocol.messages import DataHeader, data_associated_data, encode_data

_AD_E2E = b"e2e"
_HOP_LABEL = b"hop"

#: Step-2 sealed plaintext: timestamp τ in microseconds, then c1.
_TAU = struct.Struct(">Q")

#: Step-1 inner envelope: source id, flag, payload. In explicit-counter
#: mode a 6-byte counter field follows the flag (Sec. IV-C: "the counter
#: ... can be sent alongside the message"), trading 6 bytes of airtime per
#: message for immunity to counter desynchronization.
_INNER = struct.Struct(">IB")
_EXPLICIT_CTR_LEN = 6

#: Bytes of the inner envelope's fixed header (source id and flag): no
#: well-formed ``c1`` is shorter.
INNER_HEADER_SIZE = _INNER.size

FLAG_PLAINTEXT = 0
FLAG_ENCRYPTED = 1
FLAG_ENCRYPTED_EXPLICIT = 2


class StaleMessage(Exception):
    """Frame older than the freshness window (τ check failed)."""


@dataclass(frozen=True)
class InnerEnvelope:
    """Parsed ``c1``: the path-invariant end-to-end payload."""

    source: int
    encrypted: bool
    payload: bytes  # ciphertext when encrypted, raw reading otherwise
    #: Transmitted counter in explicit mode; None in implicit mode.
    counter: int | None = None


# ---------------------------------------------------------------------------
# Step 1 — end-to-end protection under the node key K_i
# ---------------------------------------------------------------------------


def build_inner(
    source: int,
    reading: bytes,
    node_key: bytes | None,
    counter: int | None,
    aead: AeadConfig,
    explicit_counter: bool = False,
) -> bytes:
    """Build ``c1``. With ``node_key`` set, applies Step 1 (encrypted path);
    with ``node_key=None`` the reading rides in clear inside the hop layer,
    enabling in-network data fusion. ``explicit_counter`` transmits the
    counter in clear (6 bytes) instead of relying on synchronized state.
    """
    if node_key is None:
        return _INNER.pack(source, FLAG_PLAINTEXT) + reading
    if counter is None:
        raise ValueError("Step 1 requires the shared counter")
    sealed = seal(node_key, counter, reading, _AD_E2E + struct.pack(">I", source), aead)
    if explicit_counter:
        ctr_bytes = counter.to_bytes(_EXPLICIT_CTR_LEN, "big")
        return _INNER.pack(source, FLAG_ENCRYPTED_EXPLICIT) + ctr_bytes + sealed
    return _INNER.pack(source, FLAG_ENCRYPTED) + sealed


def parse_inner(c1: bytes) -> InnerEnvelope:
    """Split ``c1`` into source, flag, optional counter, payload (keyless)."""
    if len(c1) < _INNER.size:
        raise ValueError("inner envelope too short")
    source, flag = _INNER.unpack_from(c1)
    body = c1[_INNER.size :]
    if flag == FLAG_ENCRYPTED_EXPLICIT:
        if len(body) < _EXPLICIT_CTR_LEN:
            raise ValueError("explicit-counter envelope too short")
        counter = int.from_bytes(body[:_EXPLICIT_CTR_LEN], "big")
        return InnerEnvelope(source, True, body[_EXPLICIT_CTR_LEN:], counter)
    return InnerEnvelope(source, flag == FLAG_ENCRYPTED, body)


class CounterWindow:
    """Bidirectional anti-replay counter window (receiver side).

    Multi-path gradient forwarding (plus forwarding jitter) can deliver a
    source's messages out of order; a forward-only window would then
    reject the stragglers. This is the standard fix: accept any *unseen*
    counter within ``window`` of the high-water mark, remember what was
    seen, refuse replays. The paper's "small window of counter values"
    covers the forward half; the backward half is reordering tolerance.
    """

    def __init__(self, window: int) -> None:
        if window < 1:
            raise ValueError("window must be >= 1")
        self.window = window
        self.high_water = 0
        self._seen: set[int] = set()

    def candidates(self) -> list[int]:
        """Acceptable counter values, nearest-to-high-water first."""
        lo = max(1, self.high_water - self.window + 1)
        hi = self.high_water + self.window
        fresh = [c for c in range(lo, hi + 1) if c not in self._seen]
        return sorted(fresh, key=lambda c: abs(c - (self.high_water + 1)))

    def accept(self, counter: int) -> None:
        """Record a verified counter and slide the window."""
        self._seen.add(counter)
        if counter > self.high_water:
            self.high_water = counter
        floor = self.high_water - self.window
        self._seen = {c for c in self._seen if c > floor}

    def would_accept(self, counter: int) -> bool:
        """Whether ``counter`` is fresh and within the window."""
        if counter in self._seen:
            return False
        return counter > self.high_water - self.window


def open_inner_windowed(
    envelope: InnerEnvelope,
    node_key: bytes,
    window: "CounterWindow",
    aead: AeadConfig,
) -> tuple[bytes, int]:
    """Base-station side of Step 1: decrypt ``c1`` against a bidirectional
    anti-replay window.

    Implicit mode tries the window's unseen counters, nearest the
    high-water mark first (the paper's "small window of counter values").
    Explicit mode uses the transmitted counter directly, rejecting a seen
    or out-of-window one. On success the window is advanced and
    ``(reading, counter_used)`` returned.

    Raises:
        AuthenticationError: nothing in the window verified — a forgery,
            a replay, or a desync beyond the window. The window is left
            unchanged.
    """
    ad = _AD_E2E + struct.pack(">I", envelope.source)
    if envelope.counter is not None:  # explicit mode
        if not window.would_accept(envelope.counter):
            raise AuthenticationError(
                f"explicit counter {envelope.counter} replayed or out of window"
            )
        reading = open_(node_key, envelope.counter, envelope.payload, ad, aead)
        window.accept(envelope.counter)
        return reading, envelope.counter
    for counter in window.candidates():
        try:
            reading = open_(node_key, counter, envelope.payload, ad, aead)
        except AuthenticationError:
            continue
        window.accept(counter)
        return reading, counter
    raise AuthenticationError("no counter in the anti-replay window verified")


# ---------------------------------------------------------------------------
# Step 2 — hop-by-hop protection under the cluster key K_c
# ---------------------------------------------------------------------------


@lru_cache(maxsize=16384)
def hop_key(cluster_key: bytes, sender: int) -> bytes:
    """Per-hop-sender subkey ``F(K_c, "hop" | sender)``.

    Lets every cluster member keep an independent counter space under the
    shared cluster key; any holder of ``K_c`` can derive it for any sender,
    preserving the broadcast/decrypt-by-all property. Cached: every frame
    a node forwards re-derives the same subkey from the same long-lived
    cluster key, so the PRF runs once per (cluster, sender) instead of
    once per frame.
    """
    return prf(cluster_key, _HOP_LABEL + struct.pack(">I", sender))


def wrap_hop(
    cluster_key: bytes,
    cid: int,
    sender: int,
    seq: int,
    hops_to_bs: int,
    tau_s: float,
    c1: bytes,
    aead: AeadConfig,
) -> bytes:
    """Apply Step 2: produce the on-air DATA frame ``c2``.

    The seal primes the open memo of :mod:`repro.crypto.aead`, so each
    receiver of the broadcast pays only its own tag comparison.
    """
    header = DataHeader(cid=cid, sender=sender, seq=seq, hops_to_bs=hops_to_bs)
    plaintext = _TAU.pack(max(0, int(tau_s * 1e6))) + c1
    sealed = seal(
        hop_key(cluster_key, sender), seq, plaintext, data_associated_data(header), aead
    )
    return encode_data(header, sealed)


def unwrap_hop(
    cluster_key: bytes, header: DataHeader, sealed: bytes | memoryview, aead: AeadConfig
) -> tuple[float, bytes, bytes]:
    """Verify the hop layer of a DATA frame; return ``(τ, c1, fingerprint)``.

    ``header`` and ``sealed`` are the frame split by
    :func:`~repro.protocol.messages.decode_data_view`; ``cluster_key`` is
    the receiver's key for the header's CID; ``fingerprint`` is
    ``DedupCache.fingerprint(c1)``. The caller checks ``τ`` against its
    own clock (:func:`check_fresh`).

    Raises:
        AuthenticationError: tag failure (tampered/unknown key), or a
            plaintext too short to hold ``τ``.
    """
    key = hop_key(cluster_key, header.sender)
    plaintext = open_(key, header.seq, sealed, data_associated_data(header), aead)
    if len(plaintext) < _TAU.size:
        raise AuthenticationError("hop plaintext too short")
    c1 = plaintext[_TAU.size :]
    return _TAU.unpack_from(plaintext)[0] / 1e6, c1, DedupCache.fingerprint(c1)


def check_fresh(tau_s: float, now_s: float, freshness_window_s: float) -> None:
    """The freshness check of Step 2: ``τ`` within the window at ``now_s``.

    Raises:
        StaleMessage: τ outside the freshness window.
    """
    if now_s - tau_s > freshness_window_s:
        raise StaleMessage(f"frame is {now_s - tau_s:.3f}s old")


# ---------------------------------------------------------------------------
# Duplicate suppression on the path-invariant inner blob
# ---------------------------------------------------------------------------


class DedupCache:
    """Bounded LRU of inner-blob fingerprints.

    Gradient forwarding delivers a frame to several downhill nodes; each
    forwards a copy at most once, keyed on ``H(c1)`` — possible precisely
    because ``c1`` is invariant along the path. Callers pass the
    fingerprint (:meth:`fingerprint`) their reception already holds.
    """

    def __init__(self, capacity: int, trace=None) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self._seen: OrderedDict[bytes, None] = OrderedDict()
        #: Optional telemetry sink: when set, cache hits and capacity
        #: evictions are counted as ``forward.dedup_hit`` /
        #: ``forward.dedup_evict`` (see docs/TELEMETRY.md).
        self._trace = trace

    @staticmethod
    def fingerprint(c1: bytes) -> bytes:
        """8-byte digest identifying a logical message."""
        return sha256_fast(c1)[:8]

    def contains(self, fingerprint: bytes) -> bool:
        """Whether ``fingerprint`` is in the cache, without recording it.

        The base station peeks before re-ACKing a frame its hop
        anti-replay check rejected: only a link duplicate of a reading it
        already accepted is ACKed again, not a new reading under a hop
        seq too old for the window (:meth:`BaseStationAgent._on_data`).
        """
        return fingerprint in self._seen

    def seen_before(self, fingerprint: bytes, counts: dict[str, int] | None = None) -> bool:
        """Record ``fingerprint``; True if it was already in the cache.

        ``counts``, when given, collects the hit and eviction counts in
        place of the trace; its owner adds them to the trace later (a
        DATA reception adds them once per frame).
        """
        seen = self._seen
        if fingerprint in seen:
            seen.move_to_end(fingerprint)
            self._count("forward.dedup_hit", counts)
            return True
        seen[fingerprint] = None
        if len(seen) > self.capacity:
            seen.popitem(last=False)
            self._count("forward.dedup_evict", counts)
        return False

    def _count(self, name: str, counts: dict[str, int] | None) -> None:
        if self._trace is None:
            return
        if counts is None:
            self._trace.count(name)
        else:
            counts[name] = counts.get(name, 0) + 1

    def __len__(self) -> int:
        return len(self._seen)
