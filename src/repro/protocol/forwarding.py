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

A hop frame is broadcast once and received by every neighbour, and what
opening it yields — the parsed header, ``τ``, ``c1`` and ``c1``'s dedup
fingerprint — depends only on the frame's bytes and the hop key. The
*frame memo* keeps that result for the most recent frames:
:func:`wrap_hop` primes it for the frame it builds, and an
:func:`unwrap_hop` that misses inserts once the tag verified (a
malformed frame, a failed tag or a short plaintext inserts nothing).
A receiver served by the memo still makes every decision that is its
own: it picks its cluster key by the header's CID, derives the hop key
itself (the memo is used only if that key equals the one that verified
the frame), checks ``τ`` against its own clock and runs its own
anti-replay and duplicate checks. On the loopback fan-out, one
:class:`~repro.protocol.agent.DataReception` unwraps a frame once for
all of its receivers and lets each later receiver compare its cluster
key with the one that verified the frame instead.
"""

from __future__ import annotations

import struct
from collections import OrderedDict
from dataclasses import dataclass
from functools import lru_cache
from hmac import compare_digest
from typing import NamedTuple

from repro.crypto.aead import AeadConfig, AuthenticationError, open_, seal
from repro.crypto.kdf import prf
from repro.crypto.kernels import active_backend
from repro.crypto.sha256 import sha256_fast
from repro.crypto.stats import STATS
from repro.protocol.messages import (
    DataFrameAssembler,
    DataHeader,
    data_associated_data,
    decode_data_view,
)

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


class ReplayedMessage(Exception):
    """Frame rejected by the per-sender anti-replay counter."""


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


#: Shared frame-assembly scratch for the forwarding hot path. The runtime
#: is single-threaded per deployment (event-loop driven), which is what
#: makes one module-level scratch buffer safe; see DataFrameAssembler.
_ASSEMBLER = DataFrameAssembler()

#: Most opened DATA frames the frame memo keeps (oldest inserted evicted
#: first). A frame's receivers open it within a few hundred hop
#: transmissions of it even on a lossy soak with retransmits.
FRAME_MEMO_SIZE = 512


class _OpenedFrame(NamedTuple):
    """What opening one DATA frame yields, shared by all its receivers."""

    header: DataHeader
    #: The hop key whose tag verified the frame.
    key: bytes
    #: The AEAD settings of that open, and the kernel backend they resolved to.
    aead: AeadConfig
    backend: str
    tau_s: float
    c1: bytes
    #: ``DedupCache.fingerprint(c1)``.
    fingerprint: bytes
    #: Keystream blocks an open of the frame counts, and whether the
    #: batched kernel made them (what a hit adds to ``STATS``).
    blocks: int
    vector: bool


#: DATA frame bytes -> :class:`_OpenedFrame`, in insertion order. It takes
#: no lock: every caller of wrap_hop/unwrap_hop runs on its deployment's
#: event-loop thread.
_frames: dict[bytes, _OpenedFrame] = {}


def _resolved_backend(aead: AeadConfig) -> str:
    """The keystream kernel backend ``aead`` selects right now."""
    return active_backend() if aead.backend is None else aead.backend


def _remember(
    frame: bytes,
    header: DataHeader,
    key: bytes,
    aead: AeadConfig,
    tau_s: float,
    c1: bytes,
    blocks: int,
    vector_blocks: int,
) -> _OpenedFrame:
    """Insert what opening ``frame`` yields as the newest frame-memo entry.

    ``blocks`` and ``vector_blocks`` are the ``STATS`` keystream totals
    read just before the frame was sealed or opened; the growth since is
    what a hit must count again. A re-inserted frame moves to the newest
    position, so whether an entry is held depends only on the inserts
    since it was last made, not on what an earlier run in the process
    left behind.
    """
    opened = _OpenedFrame(
        header,
        key,
        aead,
        _resolved_backend(aead),
        tau_s,
        c1,
        DedupCache.fingerprint(c1),
        STATS.keystream_blocks - blocks,
        STATS.keystream_vector_blocks != vector_blocks,
    )
    _frames.pop(frame, None)
    _frames[frame] = opened
    if len(_frames) > FRAME_MEMO_SIZE:
        del _frames[next(iter(_frames))]
    return opened


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

    The frame primes the frame memo, so its receivers share one open.
    """
    header = DataHeader(cid=cid, sender=sender, seq=seq, hops_to_bs=hops_to_bs)
    tau_us = max(0, int(tau_s * 1e6))
    key = hop_key(cluster_key, sender)
    blocks, vector_blocks = STATS.keystream_blocks, STATS.keystream_vector_blocks
    sealed = seal(key, seq, _TAU.pack(tau_us) + c1, data_associated_data(header), aead)
    frame = _ASSEMBLER.assemble(header, sealed)
    _remember(frame, header, key, aead, tau_us / 1e6, c1, blocks, vector_blocks)
    return frame


def opened_frame(frame: bytes) -> _OpenedFrame | None:
    """The frame memo's entry for ``frame``, if it holds one."""
    return _frames.get(frame)


def count_memo_hits(opened: _OpenedFrame, hits: int = 1) -> None:
    """Count in ``STATS`` what ``hits`` opens of ``opened``'s frame count.

    A frame-memo hit counts what an open-memo hit of
    :func:`~repro.crypto.aead.open_` would: one open and the frame's
    keystream blocks, all of them reused.
    """
    STATS.opens += hits
    blocks = opened.blocks * hits
    STATS.keystream_blocks += blocks
    if opened.vector:
        STATS.keystream_vector_blocks += blocks
    STATS.keystream_reused_blocks += blocks


def hop_header(frame: bytes) -> DataHeader:
    """The clear header of a received DATA frame.

    A frame in the frame memo was parsed when it was built or first
    opened, and its entry's header is returned; any other frame is
    parsed.

    Raises:
        MalformedMessage: not a DATA frame.
    """
    opened = _frames.get(frame)
    if opened is not None:
        return opened.header
    return decode_data_view(frame)[0]


def _open_frame(cluster_key: bytes, frame: bytes, aead: AeadConfig) -> _OpenedFrame:
    """Parse and open ``frame`` in full; insert the result once it verified."""
    header, sealed = decode_data_view(frame)
    key = hop_key(cluster_key, header.sender)
    blocks, vector_blocks = STATS.keystream_blocks, STATS.keystream_vector_blocks
    plaintext = open_(key, header.seq, sealed, data_associated_data(header), aead)
    if len(plaintext) < _TAU.size:
        raise AuthenticationError("hop plaintext too short")
    tau_s = _TAU.unpack_from(plaintext)[0] / 1e6
    return _remember(
        frame, header, key, aead, tau_s, plaintext[_TAU.size :], blocks, vector_blocks
    )


def unwrap_hop(
    cluster_key: bytes,
    frame: bytes,
    now_s: float,
    freshness_window_s: float,
    aead: AeadConfig,
) -> tuple[bytes, bytes]:
    """Verify the hop layer of a DATA frame; return ``(c1, fingerprint)``.

    ``cluster_key`` is the receiver's key for the CID of
    :func:`hop_header`'s header; ``fingerprint`` is
    ``DedupCache.fingerprint(c1)``. The frame memo serves the open when
    it holds ``frame`` under the very hop key this receiver derives (and
    the same AEAD settings); a hit counts in ``STATS`` what
    :func:`~repro.crypto.aead.open_` would. Otherwise the frame is parsed
    and opened in full. Either way ``τ`` is checked against ``now_s``.

    Raises:
        MalformedMessage: not a DATA frame.
        AuthenticationError: tag failure (tampered/unknown key).
        StaleMessage: τ outside the freshness window.
    """
    opened = _frames.get(frame)
    if (
        opened is not None
        and (opened.aead is aead or opened.aead == aead)
        and opened.backend == _resolved_backend(aead)
        and compare_digest(opened.key, hop_key(cluster_key, opened.header.sender))
    ):
        count_memo_hits(opened)
    else:
        opened = _open_frame(cluster_key, frame, aead)
    if now_s - opened.tau_s > freshness_window_s:
        raise StaleMessage(f"frame is {now_s - opened.tau_s:.3f}s old")
    return opened.c1, opened.fingerprint


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

        The reliability layer's re-ACK decision needs a peek: a frame
        rejected by the hop anti-replay check only deserves a custody ACK
        if its inner blob really was received before (a link duplicate) —
        not when an out-of-order hop seq carries a brand-new message.
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
