"""The LEAP node agent.

Bootstrap schedule (mirroring LEAP's T_min window):

1. at a jittered instant, broadcast the (unauthenticated) discovery
   HELLO;
2. on hearing a HELLO from ``u``, derive and store the pairwise key
   ``K_vu = F(K_u, v)``... — in LEAP the *responder* derives
   ``K_uv = F(K_v, u)`` where ``K_v = F(K_init, v)``: both ends can
   compute it while ``K_init`` is in memory, and ``v`` can recompute it
   forever from its own ``K_v``. We keep exactly that asymmetry: the key
   for the pair ``(u, v)`` is ``F(K_v, u)`` where ``v`` is the *numerically
   larger* id (a deterministic convention so both ends agree);
3. after the discovery window, generate an own cluster key and unicast it
   to every discovered neighbor under the pairwise key (one transmission
   per neighbor — the bootstrap cost the paper calls out);
4. erase ``K_init``; ``K_v`` is retained (LEAP needs it for later
   joiners) — which is precisely what the Sec. III capture exploits.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.crypto.aead import AeadConfig, AuthenticationError
from repro.crypto.kdf import prf
from repro.crypto.keys import SymmetricKey
from repro.leap import messages

if TYPE_CHECKING:  # pragma: no cover
    from repro.runtime.node import NodeRuntime


def master_derived_key(k_init: bytes, node_id: int) -> bytes:
    """``K_v = F(K_init, v)``."""
    return prf(k_init, b"leap-node" + node_id.to_bytes(4, "big"))


def pairwise_key(k_init_or_kv: bytes, u: int, v: int, from_kv: bool = False) -> bytes:
    """``K_uv = F(K_w, other)`` where ``w = max(u, v)``.

    With ``from_kv`` the first argument is already ``K_w`` (the capture
    path); otherwise it is ``K_init`` and ``K_w`` is derived first.
    """
    w, other = (u, v) if u > v else (v, u)
    kw = k_init_or_kv if from_kv else master_derived_key(k_init_or_kv, w)
    return prf(kw, b"leap-pair" + other.to_bytes(4, "big"))


class LeapAgent:
    """One LEAP node."""

    def __init__(
        self,
        node: "NodeRuntime",
        k_init: SymmetricKey,
        aead: AeadConfig,
        timer_rng,
        discovery_window_s: float = 2.0,
    ) -> None:
        self.node = node
        self.aead = aead
        self._rng = timer_rng
        self._trace = node.trace
        self.discovery_window_s = discovery_window_s
        self.k_init = k_init
        #: Retained for the network's lifetime (LEAP's later-joiner path).
        self.k_v = SymmetricKey(  # ldplint: disable=KEY002 -- LEAP keeps K_v so later joiners can authenticate; this retention IS the Sec. III weakness we reproduce
            master_derived_key(k_init.material, node.id), label=f"K_v[{node.id}]"
        )
        #: Pairwise keys by neighbor id — grows with every HELLO heard,
        #: forged or not (the Sec. III weakness).
        self.pairwise: dict[int, bytes] = {}
        #: Own cluster key, generated after discovery.
        self.cluster_key = SymmetricKey.generate(timer_rng, label=f"Kc[{node.id}]")  # ldplint: disable=KEY002 -- LEAP cluster keys live for the deployment; LEAP has no erase-after-setup phase
        #: Neighbors' cluster keys, received over pairwise links.
        self.neighbor_cluster_keys: dict[int, bytes] = {}
        self.bootstrapped = False
        self._seq = 0
        self.received_payloads: list[tuple[int, bytes]] = []

    # ------------------------------------------------------------------
    # Bootstrap
    # ------------------------------------------------------------------

    def start_bootstrap(self) -> None:
        """Arm the discovery HELLO and the cluster-key distribution."""
        hello_at = float(self._rng.uniform(0.0, self.discovery_window_s * 0.5))
        self.node.schedule(hello_at, self._send_hello)
        dist_at = self.discovery_window_s + float(self._rng.uniform(0.0, 0.5))
        self.node.schedule(dist_at, self._distribute_cluster_key)

    def _send_hello(self) -> None:
        self._trace.count("leap.tx.hello")
        self.node.broadcast(messages.encode_discovery_hello(self.node.id))

    def _on_hello(self, frame: bytes) -> None:
        if self.k_init.erased:
            self._trace.count("leap.drop.hello_after_bootstrap")
            return
        try:
            claimed = messages.decode_discovery_hello(frame)
        except messages.MalformedLeapMessage:
            return
        if claimed == self.node.id or claimed in self.pairwise:
            return
        # No way to authenticate the claim: compute the pairwise key as
        # the protocol mandates. Forged ids cost real memory.
        self.pairwise[claimed] = pairwise_key(self.k_init.material, self.node.id, claimed)
        self._trace.count("leap.pairwise_established")

    def _distribute_cluster_key(self) -> None:
        """One unicast per discovered neighbor — LEAP's bootstrap bill."""
        for neighbor, key in sorted(self.pairwise.items()):
            frame = messages.encode_cluster_key(
                key, self.node.id, neighbor, self.cluster_key.material, self.aead
            )
            self._trace.count("leap.tx.cluster_key")
            self.node.broadcast(frame)
        self.k_init.erase()
        self.bootstrapped = True

    def _on_cluster_key(self, frame: bytes) -> None:
        try:
            sender, addressee = messages.cluster_key_header(frame)
        except messages.MalformedLeapMessage:
            return
        if addressee != self.node.id or sender not in self.pairwise:
            return
        try:
            key = messages.decode_cluster_key(self.pairwise[sender], frame, self.aead)
        except (AuthenticationError, messages.MalformedLeapMessage):
            self._trace.count("leap.drop.cluster_key_bad_auth")
            return
        self.neighbor_cluster_keys[sender] = key
        self._trace.count("leap.cluster_key_learned")

    # ------------------------------------------------------------------
    # Steady state
    # ------------------------------------------------------------------

    def broadcast_payload(self, payload: bytes) -> None:
        """One transmission under the own cluster key reaches all neighbors."""
        self._seq += 1
        frame = messages.encode_data(
            self.cluster_key.material, self.node.id, self._seq, payload, self.aead
        )
        self._trace.count("leap.tx.data")
        self.node.broadcast(frame)

    def _on_data(self, frame: bytes) -> None:
        try:
            sender, _seq = messages.data_header(frame)
        except messages.MalformedLeapMessage:
            return
        key = self.neighbor_cluster_keys.get(sender)
        if key is None:
            self._trace.count("leap.drop.data_unknown_sender")
            return
        try:
            payload = messages.decode_data(key, frame, self.aead)
        except (AuthenticationError, messages.MalformedLeapMessage):
            self._trace.count("leap.drop.data_bad_auth")
            return
        self.received_payloads.append((sender, payload))

    # ------------------------------------------------------------------

    def keys_stored(self) -> int:
        """Total symmetric keys in memory: K_v + own cluster key +
        pairwise keys + received cluster keys (the Sec. III storage
        comparison, measured live)."""
        return 2 + len(self.pairwise) + len(self.neighbor_cluster_keys)

    def on_frame(self, sender_id: int, frame: bytes) -> None:
        """Link-layer dispatch (sender id untrusted and unused)."""
        if not frame:
            return
        if frame[0] == messages.DISCOVERY_HELLO:
            self._on_hello(frame)
        elif frame[0] == messages.CLUSTER_KEY:
            self._on_cluster_key(frame)
        elif frame[0] == messages.LEAP_DATA:
            self._on_data(frame)
