"""Base-station side of the protocol.

The base station "is given all the ID numbers and keys used in the network
before the deployment phase" (Sec. IV-A): every node key ``K_i``, the
cluster master key ``K_MC`` from which all candidate cluster keys derive,
and the revocation key chain it alone can extend.

Its runtime duties:

* decrypt the hop layer of DATA frames arriving from in-range clusters
  (any cluster key is derivable from ``K_MC`` and the refresh epoch);
* open Step-1 envelopes with per-source counter recovery;
* issue keychain-authenticated revocation commands (Sec. IV-D);
* track recluster-refresh key updates for clusters within earshot.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

from repro.crypto.aead import AuthenticationError
from repro.crypto.kdf import derive_cluster_key, refresh_key
from repro.crypto.keychain import KeyChain
from repro.crypto.keys import SymmetricKey
from repro.crypto.mac import mac
from repro.protocol import messages
from repro.protocol.config import COUNTER_WINDOW, DEDUP_CACHE_SIZE, ProtocolConfig
from repro.protocol.forwarding import (
    CounterWindow,
    DedupCache,
    StaleMessage,
    check_fresh,
    open_inner_windowed,
    parse_inner,
    unwrap_hop,
)
from repro.protocol.state import accept_hop_seq

if TYPE_CHECKING:  # pragma: no cover
    from repro.runtime.node import NodeRuntime


@dataclass
class KeyRegistry:
    """The pre-deployment key database held by the base station."""

    node_keys: dict[int, SymmetricKey]  # ldplint: disable=KEY002 -- the BS key database outlives every node (Sec. IV-A); the BS is trusted/uncapturable in the model
    kmc: SymmetricKey
    chain: KeyChain

    def node_key(self, node_id: int) -> bytes:
        """``K_i`` of node ``node_id``.

        Raises:
            KeyError: unknown node id (never provisioned).
        """
        return self.node_keys[node_id].material


@dataclass
class DeliveredReading:
    """One reading accepted by the base station."""

    time: float
    source: int
    data: bytes
    was_encrypted: bool


class BaseStationAgent:
    """Application attached to the base-station node."""

    def __init__(
        self,
        node: "NodeRuntime",
        config: ProtocolConfig,
        registry: KeyRegistry,
    ) -> None:
        self.node = node
        self.config = config
        self.registry = registry
        self._trace = node.trace
        self._dedup = DedupCache(DEDUP_CACHE_SIZE, trace=self._trace)
        #: Cached current cluster keys, kept in step with refreshes.
        self._cluster_keys: dict[int, bytes] = {}
        #: Whether unknown cids may still be derived from K_MC (turned off
        #: once a re-clustering replaces keys with random ones).
        self._derivation_enabled = True
        #: Network-wide hash-refresh epoch the BS has applied.
        self._hash_epoch = 0
        #: Per-cluster recluster-refresh epochs seen via REFRESH frames.
        self._refresh_epochs: dict[int, int] = {}
        #: Per-source Step-1 anti-replay counter windows (bidirectional:
        #: multi-path forwarding can reorder a source's messages).
        self._e2e_windows: dict[int, CounterWindow] = {}
        #: Hop anti-replay window per hop sender, like any node's.
        self._hop_windows: dict[int, int] = {}
        self.delivered: list[DeliveredReading] = []
        #: Incremental delivery accounting: kept in lockstep with
        #: ``delivered`` so status consumers (the gateway query plane)
        #: never scan the full log — O(1) even after millions of readings.
        self.delivered_total = 0
        self._sources_seen: set[int] = set()
        #: Delivery-notification hooks: called with each accepted
        #: :class:`DeliveredReading` the moment it is verified. This is
        #: the seam the gateway query plane (:mod:`repro.gateway`)
        #: ingests from; exceptions are the listener's problem, not the
        #: protocol's, so register only non-raising callables.
        self.delivery_listeners: list[Callable[[DeliveredReading], None]] = []
        self.rejected = 0
        self.revoked_cids: set[int] = set()
        #: Rejected-frame counts by claimed cluster id. The paper assumes
        #: an external detection mechanism informs the BS of compromises;
        #: this per-cluster anomaly telemetry is the raw signal such a
        #: detector (or an operator) would consume.
        self.rejections_by_cluster: Counter = Counter()

    # ------------------------------------------------------------------
    # Cluster-key management
    # ------------------------------------------------------------------

    def cluster_key(self, cid: int) -> bytes:
        """Current key of cluster ``cid`` as the BS understands it.

        Raises:
            KeyError: unknown cluster after derivation was disabled by a
                re-clustering (``install_cluster_keys``).
        """
        if cid not in self._cluster_keys:
            if not self._derivation_enabled:
                raise KeyError(f"no key installed for cluster {cid}")
            key = derive_cluster_key(self.registry.kmc.material, cid)
            for _ in range(self._hash_epoch):
                key = refresh_key(key)
            self._cluster_keys[cid] = key
        return self._cluster_keys[cid]

    def apply_hash_refresh(self) -> None:
        """Advance all cluster keys by one hash-refresh epoch."""
        self._hash_epoch += 1
        for cid, key in list(self._cluster_keys.items()):
            self._cluster_keys[cid] = refresh_key(key)

    def install_cluster_keys(self, keys: dict[int, bytes]) -> None:
        """Replace the cluster-key map wholesale.

        Used after an unconstrained re-clustering ("reelect" refresh):
        new cluster keys are random, so ``K_MC`` derivation no longer
        applies. This call stands in for BS-side tracking of the election
        broadcasts, which the paper leaves unspecified.
        """
        self._cluster_keys = dict(keys)
        self._derivation_enabled = False

    # ------------------------------------------------------------------
    # Frame handling
    # ------------------------------------------------------------------

    def on_frame(self, sender_id: int, frame: bytes) -> None:
        """Link-layer entry point (``sender_id`` untrusted, unused)."""
        if not frame:
            return
        if frame[0] == messages.DATA:
            self._on_data(frame)
        elif frame[0] == messages.REFRESH:
            self._on_refresh(frame)
        # Other traffic (setup, joins, its own revocations) is ignored.

    def add_delivery_listener(
        self, listener: Callable[[DeliveredReading], None]
    ) -> None:
        """Register ``listener`` to observe every accepted reading.

        Listeners fire synchronously inside the accept path, after the
        reading is appended to :attr:`delivered` — i.e. the reading they
        see is already final. The gateway state store
        (:class:`repro.gateway.store.GatewayStateStore`) attaches here.
        """
        self.delivery_listeners.append(listener)

    @property
    def distinct_sources(self) -> int:
        """Number of distinct source nodes ever delivered — O(1)."""
        return len(self._sources_seen)

    def _record_delivery(self, reading: DeliveredReading) -> None:
        """Append one accepted reading and fan it out to listeners."""
        self.delivered.append(reading)
        self.delivered_total += 1
        self._sources_seen.add(reading.source)
        self._trace.count("bs.delivered")
        for listener in self.delivery_listeners:
            listener(reading)

    def _reject(self, cid: int | None = None) -> None:
        """Count a rejected frame, attributed to its claimed cluster."""
        self.rejected += 1
        if cid is not None:
            self.rejections_by_cluster[cid] += 1

    def suspicious_clusters(self, threshold: int = 5) -> list[int]:
        """Cluster ids whose rejected-frame count exceeds ``threshold`` —
        the anomaly signal an external detection mechanism would act on."""
        return sorted(
            cid for cid, k in self.rejections_by_cluster.items() if k >= threshold
        )

    def _on_data(self, frame: bytes) -> None:
        try:
            header, sealed = messages.decode_data_view(frame)
        except messages.MalformedMessage:
            self._reject()
            return
        if header.cid in self.revoked_cids:
            self._trace.count("bs.drop_revoked_cluster")
            self._reject(header.cid)
            return
        try:
            tau_s, c1, fp = unwrap_hop(
                self.cluster_key(header.cid), header, sealed, self.config.aead
            )
            check_fresh(tau_s, self.node.now(), self.config.freshness_window_s)
        except KeyError:
            self._trace.count("bs.drop_unknown_cluster")
            self._reject(header.cid)
            return
        except AuthenticationError:
            self._trace.count("bs.drop_bad_auth")
            self._reject(header.cid)
            return
        except StaleMessage:
            self._trace.count("bs.drop_stale")
            self._reject(header.cid)
            return
        if not accept_hop_seq(self._hop_windows, header.sender, header.seq):
            # Authenticated but already-seen (or too old) hop sequence.
            # Re-ACK only a true link duplicate (the sender's ACK may have
            # been lost): for the BS, an inner blob in the dedup cache
            # *was* accepted. A seq too old for the window carrying a new
            # message stays unACKed so the sender re-wraps and retries it
            # under a fresh seq.
            self._trace.count("bs.drop_replay")
            self._reject(header.cid)
            if self._dedup.contains(fp):
                self._send_ack(header.cid, header.sender, fp)
            return
        if self._dedup.seen_before(fp):
            # The same logical reading arriving over several paths is
            # expected with gradient forwarding; count it, don't reject it.
            self._trace.count("bs.duplicate_path")
            self._send_ack(header.cid, header.sender, fp)
            return
        self._send_ack(header.cid, header.sender, fp)
        self._accept_inner(c1)

    def _send_ack(self, cid: int, hop_sender: int, fp: bytes) -> None:
        """Custody ACK for the message ``fp`` addressed to ``hop_sender``.

        The BS is the custody chain's endpoint: everything it
        authenticates is final. No-op unless the reliability extension is
        on (``hop_ack_enabled``).
        """
        if not self.config.hop_ack_enabled:
            return
        try:
            key = self.cluster_key(cid)
        except KeyError:
            return
        tag = mac(key, messages.ack_mac_input(cid, hop_sender, fp), self.config.tag_len)
        self._trace.count("tx.ack")
        self.node.broadcast(messages.encode_ack(cid, hop_sender, fp, tag))

    def _accept_inner(self, c1: bytes) -> None:
        try:
            envelope = parse_inner(c1)
        except ValueError:
            self.rejected += 1
            return
        if not envelope.encrypted:
            self._record_delivery(
                DeliveredReading(
                    self.node.now(), envelope.source, envelope.payload, False
                )
            )
            return
        try:
            node_key = self.registry.node_key(envelope.source)
        except KeyError:
            self._trace.count("bs.drop_unknown_source")
            self.rejected += 1
            return
        window = self._e2e_windows.get(envelope.source)
        if window is None:
            window = self._e2e_windows[envelope.source] = CounterWindow(COUNTER_WINDOW)
        try:
            reading, _counter = open_inner_windowed(
                envelope, node_key, window, self.config.aead
            )
        except AuthenticationError:
            self._trace.count("bs.drop_e2e_auth")
            self._reject()
            return
        self._record_delivery(
            DeliveredReading(self.node.now(), envelope.source, reading, True)
        )

    def _on_refresh(self, frame: bytes) -> None:
        """Track recluster refreshes of clusters within earshot."""
        try:
            cid, epoch = messages.refresh_header(frame)
        except messages.MalformedMessage:
            return
        if cid in self.revoked_cids or epoch <= self._refresh_epochs.get(cid, 0):
            return
        try:
            _, _, new_key = messages.decode_refresh(
                self.cluster_key(cid), frame, self.config.aead
            )
        except (AuthenticationError, messages.MalformedMessage, KeyError):
            return
        self._cluster_keys[cid] = new_key
        self._refresh_epochs[cid] = epoch

    # ------------------------------------------------------------------
    # Revocation (Sec. IV-D)
    # ------------------------------------------------------------------

    def revoke_clusters(self, cids: list[int]) -> bytes:
        """Issue and broadcast a revocation command for ``cids``.

        Returns the frame (so tests and multi-hop floods can reuse it).
        The next chain key authenticates the command; nodes flood it on.
        """
        index, chain_key = self.registry.chain.reveal_next()
        tag = mac(chain_key, messages.revoke_mac_input(index, cids), self.config.tag_len)
        frame = messages.encode_revoke(index, chain_key, cids, tag)
        self.revoked_cids.update(cids)
        for cid in cids:
            self._cluster_keys.pop(cid, None)
        self._trace.count("bs.revoke_issued")
        self.node.broadcast(frame)
        return frame

    def readings_from(self, source: int) -> list[DeliveredReading]:
        """Delivered readings originated by ``source``."""
        return [r for r in self.delivered if r.source == source]
