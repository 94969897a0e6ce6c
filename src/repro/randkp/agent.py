"""The Eschenauer–Gligor node agent.

Bootstrap:

1. **discovery** — at a jittered instant, broadcast the ring's key ids;
   on hearing a neighbor's announcement, intersect rings and, when the
   intersection is non-empty, derive the link key from the smallest
   shared pool key (deterministic agreement without extra messages);
2. **path-key round** — after the discovery window, for every announced
   neighbor with an empty intersection, pick a secured neighbor whose
   *public* ring ids intersect the target's (announcements make that
   computable locally) and ask it to act as relay; a relay holding
   secured links to both ends generates a fresh key and grants it to
   both. Unpatched links (no suitable relay in range) remain unsecured —
   the measured residual.

Capture semantics mirror E-G's analysis: a captured node yields its ring
keys (compromising *any* link in the network keyed from them), its link
keys, and every path key it generated as a relay.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.crypto.aead import AeadConfig, AuthenticationError
from repro.crypto.kdf import prf
from repro.randkp import messages

if TYPE_CHECKING:  # pragma: no cover
    from repro.runtime.node import NodeRuntime


def link_key_from_pool(pool_key: bytes, u: int, v: int) -> bytes:
    """Deterministic link key from the smallest shared pool key."""
    lo, hi = (u, v) if u < v else (v, u)
    return prf(pool_key, b"eg-link" + lo.to_bytes(4, "big") + hi.to_bytes(4, "big"))


class RandKpAgent:
    """One E-G node."""

    def __init__(
        self,
        node: "NodeRuntime",
        ring: dict[int, bytes],
        aead: AeadConfig,
        timer_rng,
        discovery_window_s: float = 2.0,
        q: int = 1,
    ) -> None:
        if q < 1:
            raise ValueError("q must be >= 1")
        self.node = node
        self.ring = dict(ring)  # pool key id -> pool key material
        self.ring_ids = tuple(sorted(ring))
        self.aead = aead
        self._rng = timer_rng
        self._trace = node.trace
        self.discovery_window_s = discovery_window_s
        #: Chan–Perrig–Song q-composite threshold: a direct link needs at
        #: least q shared pool keys, and its key hashes all of them (q=1
        #: degenerates to basic E-G).
        self.q = q
        #: Announcements heard: neighbor id -> its (public) ring ids.
        self.announced: dict[int, tuple[int, ...]] = {}
        #: Established link keys: neighbor -> (key, how) with how in
        #: {"shared", "path"}.
        self.link_keys: dict[int, tuple[bytes, str]] = {}
        #: Path keys this node generated as a relay: (u, v) -> key. E-G's
        #: known exposure — the relay can read that link forever.
        self.relay_knowledge: dict[tuple[int, int], bytes] = {}
        self._seq = 0
        self.bootstrapped = False

    # ------------------------------------------------------------------
    # Phase 1 — shared-key discovery
    # ------------------------------------------------------------------

    def start_bootstrap(self) -> None:
        """Arm the announcement and the path-key round."""
        at = float(self._rng.uniform(0.0, self.discovery_window_s * 0.5))
        self.node.schedule(at, self._announce)
        path_at = self.discovery_window_s + float(self._rng.uniform(0.0, 0.5))
        self.node.schedule(path_at, self._run_path_key_round)

    def _announce(self) -> None:
        self._trace.count("eg.tx.announce")
        self.node.broadcast(messages.encode_ring_announce(self.node.id, self.ring_ids))

    def _on_announce(self, frame: bytes) -> None:
        try:
            nid, ring_ids = messages.decode_ring_announce(frame)
        except messages.MalformedRandKpMessage:
            return
        if nid == self.node.id or nid in self.announced:
            return
        self.announced[nid] = ring_ids
        shared = self.ring.keys() & ring_ids
        if len(shared) >= self.q:
            self.link_keys[nid] = (
                self._direct_link_key(shared, nid),
                "shared",
            )
            self._trace.count("eg.link_shared")

    def _direct_link_key(self, shared: set[int], nid: int) -> bytes:
        """Basic E-G keys from the smallest shared pool key; q-composite
        hashes *all* shared keys together (breaking the link then requires
        exposing every one of them)."""
        if self.q == 1:
            return link_key_from_pool(self.ring[min(shared)], self.node.id, nid)
        from repro.crypto.sha256 import sha256_fast

        combined = sha256_fast(b"".join(self.ring[k] for k in sorted(shared)))[:16]
        return link_key_from_pool(combined, self.node.id, nid)

    # ------------------------------------------------------------------
    # Phase 2 — path-key establishment
    # ------------------------------------------------------------------

    def _next_seq(self) -> int:
        self._seq += 1
        return self._seq

    def _run_path_key_round(self) -> None:
        """Request one relay per unsecured announced neighbor."""
        for target, target_ring in sorted(self.announced.items()):
            if target in self.link_keys:
                continue
            # Deterministic tie-break (both ends may request; harmless).
            relay = self._pick_relay(target, target_ring)
            if relay is None:
                self._trace.count("eg.path_no_relay")
                continue
            key, _ = self.link_keys[relay]
            seq = self._next_seq()
            frame = messages.encode_path_key_req(
                key, self.node.id, relay, target, seq, self.aead
            )
            self._trace.count("eg.tx.path_req")
            self.node.broadcast(frame)
        self.bootstrapped = True

    def _pick_relay(self, target: int, target_ring: tuple[int, ...]) -> int | None:
        """A secured neighbor whose public ring intersects the target's."""
        target_set = set(target_ring)
        for candidate in sorted(self.link_keys):
            cand_ring = self.announced.get(candidate)
            if cand_ring and target_set & set(cand_ring):
                return candidate
        return None

    def _on_path_key_req(self, frame: bytes) -> None:
        try:
            requester, relay, seq = messages.path_key_req_header(frame)
        except messages.MalformedRandKpMessage:
            return
        if relay != self.node.id or requester not in self.link_keys:
            return
        req_key, _ = self.link_keys[requester]
        try:
            target = messages.decode_path_key_req(req_key, frame, self.aead)
        except (AuthenticationError, messages.MalformedRandKpMessage):
            self._trace.count("eg.drop.path_req_bad_auth")
            return
        if target not in self.link_keys:
            # Heard its ring but never keyed with it, or out of range.
            self._trace.count("eg.relay_cannot_serve")
            return
        path_key = self._rng.integers(0, 256, size=16, dtype="uint8").tobytes()
        pair = (min(requester, target), max(requester, target))
        self.relay_knowledge[pair] = path_key
        self._trace.count("eg.path_key_generated")
        for addressee, peer in ((requester, target), (target, requester)):
            key, _ = self.link_keys[addressee]
            grant = messages.encode_path_key_grant(
                key, self.node.id, addressee, peer, self._next_seq(), path_key, self.aead
            )
            self._trace.count("eg.tx.path_grant")
            self.node.broadcast(grant)

    def _on_path_key_grant(self, frame: bytes) -> None:
        try:
            relay, addressee, seq = messages.path_key_grant_header(frame)
        except messages.MalformedRandKpMessage:
            return
        if addressee != self.node.id or relay not in self.link_keys:
            return
        relay_key, _ = self.link_keys[relay]
        try:
            peer, path_key = messages.decode_path_key_grant(relay_key, frame, self.aead)
        except (AuthenticationError, messages.MalformedRandKpMessage):
            self._trace.count("eg.drop.path_grant_bad_auth")
            return
        if peer not in self.link_keys:
            self.link_keys[peer] = (path_key, "path")
            self._trace.count("eg.link_path")

    # ------------------------------------------------------------------

    def keys_stored(self) -> int:
        """Ring keys + established link keys (live storage metric)."""
        return len(self.ring) + len(self.link_keys)

    def on_frame(self, sender_id: int, frame: bytes) -> None:
        """Link-layer dispatch (sender id untrusted and unused)."""
        if not frame:
            return
        if frame[0] == messages.RING_ANNOUNCE:
            self._on_announce(frame)
        elif frame[0] == messages.PATH_KEY_REQ:
            self._on_path_key_req(frame)
        elif frame[0] == messages.PATH_KEY_GRANT:
            self._on_path_key_grant(frame)
