"""Multi-gateway federation: signed version-vector deltas, pulled.

Each gateway owns a region of the mesh (its base station only ingests
readings from sources in that region — :class:`~repro.gateway.store.RegionSpec`)
and periodically pulls from its peers so that *any* gateway can answer
queries for the *whole* deployment. The exchange is a state-based CRDT
delta sync in two messages:

1. the puller POSTs its signed **version vector** (origin gateway id →
   highest sequence number applied) to a peer's ``/federation/pull``;
2. the peer answers with the signed list of LWW winners the puller has
   not seen (``entries_since``), plus its own vector.

Merging is last-write-wins on ``(time, seq, origin)`` — commutative,
associative, idempotent — so pull order, repetition and peer count
never affect the converged state. Authenticity: both messages carry an
HMAC (our :func:`repro.crypto.mac.mac`) over the canonical JSON payload
under a pre-shared federation key; gateways are base stations, i.e. the
paper's trusted resource-rich endpoints, so a PSK matches the trust
model (Sec. IV-A). The MAC stops a network attacker from injecting
fabricated sensor state into the query plane — it does *not* encrypt;
see ``docs/GATEWAY.md`` for the threat notes.

No third-party dependencies: the HTTP client is ``urllib.request``.
"""

from __future__ import annotations

import json
import math
import urllib.error
import urllib.request

from repro.crypto.kdf import prf
from repro.crypto.mac import mac
from repro.gateway.store import GatewayStateStore, StateEntry
from repro.util.bytesutil import constant_time_eq

__all__ = [
    "FederationError",
    "derive_federation_key",
    "sign_payload",
    "verify_payload",
    "signed_digest",
    "handle_pull",
    "apply_pull_body",
    "federate_once",
    "FederationPeer",
]

#: Wire MAC length: full 16 bytes, not the mesh's truncated 8 — the query
#: plane runs on resource-rich gateways, so there is no reason to trade
#: tag strength for airtime here.
TAG_LEN = 16

_FED_LABEL = b"\x05gateway-federation"


class FederationError(Exception):
    """A federation exchange failed (bad MAC, malformed body, transport)."""


def derive_federation_key(master: bytes) -> bytes:
    """Derive the federation PSK from a deployment master secret.

    Domain-separated from every mesh key derivation (its label byte is
    unused by :mod:`repro.crypto.kdf`), so compromise of the query plane
    PSK never implies a mesh key and vice versa.
    """
    return prf(master, _FED_LABEL)


def _canonical(payload: dict) -> bytes:
    """Canonical JSON bytes of ``payload`` (sorted keys, no whitespace)."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":")).encode()


def sign_payload(key: bytes, payload: dict) -> str:
    """Hex MAC tag authenticating ``payload`` under the federation key."""
    return mac(key, _canonical(payload), TAG_LEN).hex()


def verify_payload(key: bytes, payload: dict, tag_hex: str) -> bool:
    """Constant-time check of a payload's hex MAC tag."""
    try:
        claimed = bytes.fromhex(tag_hex)
    except (TypeError, ValueError):
        return False
    return constant_time_eq(mac(key, _canonical(payload), TAG_LEN), claimed)


def signed_digest(store: GatewayStateStore, key: bytes) -> dict:
    """The store's digest wrapped as a signed wire message."""
    payload = store.digest()
    return {"payload": payload, "mac": sign_payload(key, payload)}


# ----------------------------------------------------------------------
# Server side: answer a pull
# ----------------------------------------------------------------------


def handle_pull(store: GatewayStateStore, key: bytes, body: dict) -> dict:
    """Answer one ``/federation/pull`` request body with a signed delta.

    Raises:
        FederationError: malformed request or MAC failure (the caller
            maps this to HTTP 403/400 and counts
            ``gateway.federation.auth_failures``).
    """
    payload = body.get("payload")
    tag = body.get("mac")
    if not isinstance(payload, dict) or not isinstance(tag, str):
        raise FederationError("malformed pull request")
    if not verify_payload(key, payload, tag):
        store.registry.inc("gateway.federation.auth_failures")
        raise FederationError("pull request failed MAC verification")
    vector = payload.get("vector")
    if not isinstance(vector, dict):
        raise FederationError("pull request missing version vector")
    try:
        wanted = {str(origin): int(seq) for origin, seq in vector.items()}
    except (TypeError, ValueError, OverflowError) as exc:
        raise FederationError(f"bad version vector: {exc}") from exc
    entries = store.entries_since(wanted)
    store.registry.inc("gateway.federation.entries_sent", len(entries))
    response = {
        "gateway": store.gateway_id,
        "vector": store.vector_snapshot(),
        "entries": [entry.to_wire() for entry in entries],
        # Eviction tombstones ride along so a node revoked behind one
        # gateway disappears from every peer's query plane too (merged
        # by max-time; see GatewayStateStore.apply_evictions).
        "evictions": {
            str(node): time for node, time in store.evictions_snapshot().items()
        },
    }
    return {"payload": response, "mac": sign_payload(key, response)}


# ----------------------------------------------------------------------
# Client side: issue a pull, merge the delta
# ----------------------------------------------------------------------


def pull_request_body(store: GatewayStateStore, key: bytes) -> dict:
    """The signed request body a puller sends to a peer."""
    payload = {"gateway": store.gateway_id, "vector": store.vector_snapshot()}
    return {"payload": payload, "mac": sign_payload(key, payload)}


def apply_pull_body(store: GatewayStateStore, key: bytes, body: dict) -> tuple[int, int]:
    """Verify and merge a peer's pull response; ``(applied, stale)``.

    Raises:
        FederationError: malformed response or MAC failure — nothing is
            merged from a message that does not authenticate.
    """
    payload = body.get("payload")
    tag = body.get("mac")
    if not isinstance(payload, dict) or not isinstance(tag, str):
        raise FederationError("malformed pull response")
    if not verify_payload(key, payload, tag):
        store.registry.inc("gateway.federation.auth_failures")
        raise FederationError("pull response failed MAC verification")
    wire_entries = payload.get("entries")
    if not isinstance(wire_entries, list):
        raise FederationError("pull response missing entries")
    try:
        entries = [StateEntry.from_wire(w) for w in wire_entries]
    except ValueError as exc:
        raise FederationError(str(exc)) from exc
    wire_evictions = payload.get("evictions", {})
    if not isinstance(wire_evictions, dict):
        raise FederationError("pull response evictions must be an object")
    try:
        tombstones = {int(node): float(t) for node, t in wire_evictions.items()}
    except (TypeError, ValueError, OverflowError) as exc:
        raise FederationError(f"bad eviction tombstones: {exc}") from exc
    if not all(map(math.isfinite, tombstones.values())):
        raise FederationError("bad eviction tombstones: non-finite time")
    # Tombstones first: a just-evicted node's stale winner in the same
    # delta must not resurrect it for one pull round.
    if tombstones:
        store.apply_evictions(tombstones)
    applied, stale = store.merge(entries)
    store.registry.inc("gateway.federation.entries_applied", applied)
    store.registry.inc("gateway.federation.entries_stale", stale)
    store.registry.inc("gateway.federation.pulls")
    return applied, stale


def federate_once(
    a: GatewayStateStore, b: GatewayStateStore, key: bytes
) -> tuple[int, int]:
    """One full in-process sync round between two stores (both directions).

    Exercises the exact wire protocol (signed request, signed delta)
    without sockets; returns ``(applied_into_a, applied_into_b)``. After
    one round with no concurrent writes, ``a.snapshot() == b.snapshot()``.
    """
    applied_a, _ = apply_pull_body(a, key, handle_pull(b, key, pull_request_body(a, key)))
    applied_b, _ = apply_pull_body(b, key, handle_pull(a, key, pull_request_body(b, key)))
    return applied_a, applied_b


class FederationPeer:
    """One remote peer gateway, pulled over HTTP with ``urllib``."""

    def __init__(self, url: str, key: bytes, timeout_s: float = 10.0) -> None:
        """``url`` is the peer's base URL (e.g. ``http://127.0.0.1:8441``)."""
        self.url = url.rstrip("/")
        self._key = key
        self.timeout_s = timeout_s

    def pull(self, store: GatewayStateStore) -> tuple[int, int]:
        """Pull the peer's delta into ``store``; ``(applied, stale)``.

        Raises:
            FederationError: transport failure, non-200 response, bad
                JSON or MAC failure (counted under
                ``gateway.federation.errors`` by the caller's loop).
        """
        body = json.dumps(pull_request_body(store, self._key)).encode()
        request = urllib.request.Request(
            self.url + "/federation/pull",
            data=body,
            headers={"Content-Type": "application/json"},
            method="POST",
        )
        try:
            with urllib.request.urlopen(request, timeout=self.timeout_s) as response:
                raw = response.read()
        except (urllib.error.URLError, OSError) as exc:
            raise FederationError(f"pull from {self.url} failed: {exc}") from exc
        try:
            parsed = json.loads(raw.decode())
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise FederationError(f"bad pull response from {self.url}: {exc}") from exc
        if not isinstance(parsed, dict):
            raise FederationError(f"bad pull response from {self.url}: not an object")
        return apply_pull_body(store, self._key, parsed)
