"""The per-node protocol agent: the paper's state machine.

One :class:`ProtocolAgent` is attached to each sensor node and implements
every node-side behaviour of the protocol:

* phase 1 — clusterhead election with exponential timers and HELLO
  processing (Sec. IV-B.1);
* phase 2 — cluster-key dissemination and neighbor-cluster key storage
  (Sec. IV-B.2), then erasure of ``K_m``;
* the data plane — Step-1/Step-2 secure forwarding with gradient routing,
  per-sender anti-replay, freshness and duplicate suppression (Sec. IV-C);
* revocation processing with the one-way key chain (Sec. IV-D);
* join-response duty for new-node addition (Sec. IV-E);
* key refresh, both hash-based and intra-cluster re-distribution
  (Sec. IV-C / VI).

Security-relevant behaviours are counted in the network trace under
``"drop.*"`` so tests and attack experiments can assert on them.
"""

from __future__ import annotations

from collections import OrderedDict
from hmac import compare_digest
from typing import TYPE_CHECKING, Any, Callable

from repro.crypto.aead import AeadConfig, AuthenticationError
from repro.crypto.keys import KeyErasedError, SymmetricKey
from repro.crypto.mac import mac, verify
from repro.crypto.stats import STATS
from repro.protocol import messages
from repro.protocol.config import (
    DEDUP_CACHE_SIZE,
    JOIN_RESPONSE_JITTER_S,
    LINK_JITTER_S,
    REVOCATION_CHAIN_LENGTH,
    ProtocolConfig,
)
from repro.protocol.forwarding import (
    INNER_HEADER_SIZE,
    DedupCache,
    StaleMessage,
    build_inner,
    check_fresh,
    parse_inner,
    unwrap_hop,
    wrap_hop,
)
from repro.protocol.state import Gradient, NodeState, Preload, Role

if TYPE_CHECKING:  # pragma: no cover
    from repro.protocol.aggregation import FusionFilter
    from repro.runtime.node import NodeRuntime
    from repro.runtime.transport import TimerHandle
    from repro.sim.trace import Trace


#: Retransmit schedule (:meth:`ProtocolAgent._track_retx`): the delay is
#: the base wait for a downhill forward or an ACK times the factor per
#: attempt, up to the cap, plus a uniform jitter that desynchronizes
#: neighbours which lost the same frame.
ACK_TIMEOUT_S = 0.3
RETX_BACKOFF_FACTOR = 2.0
RETX_BACKOFF_MAX_S = 2.0
RETX_JITTER_S = 0.05
#: Messages awaiting custody at once; beyond it a transmission is
#: send-and-pray (``net.retx.queue_full``).
RETX_QUEUE_LIMIT = 128
#: Retransmissions per message before giving up (``forward.giveup``).
MAX_RETRANSMITS = 3


class ProtocolError(RuntimeError):
    """API misuse, e.g. sending data before key setup completed."""


class _RetxEntry:
    """One message awaiting custody downhill (reliability extension)."""

    __slots__ = ("c1", "attempt", "timer")

    def __init__(self, c1: bytes) -> None:
        self.c1 = c1
        self.attempt = 0
        self.timer = None


class ProtocolAgent:
    """Node-side implementation of the localized key-management protocol."""

    def __init__(
        self,
        node: "NodeRuntime",
        config: ProtocolConfig,
        preload: Preload,
        timer_rng,
        gradient: Gradient,
    ) -> None:
        self.node = node
        self.config = config
        self.state = NodeState(node_id=node.id, preload=preload)
        #: The deployment's routing gradient, shared by every agent.
        self._gradient = gradient
        self._rng = timer_rng
        self._trace = node.trace
        self._dedup = DedupCache(DEDUP_CACHE_SIZE, trace=self._trace)
        self._hello_timer = None
        self.operational = False
        #: Optional in-network data-fusion hook (Sec. II, "intermediate
        #: node accessibility of data"); see :mod:`repro.protocol.aggregation`.
        self.fusion: "FusionFilter | None" = None
        #: Per-cluster refresh epochs applied via REFRESH messages.
        self._refresh_epochs: dict[int, int] = {}
        #: Unconstrained re-clustering state (epoch, staged keys).
        self._reelect_epoch = 0
        self._reelect_active = False
        self._reelect_decided = True
        self._reelect_timer = None
        self._staged_keys: dict[int, bytes] = {}
        self._staged_cid: int | None = None
        #: Readings this node delivered locally (for tests and examples).
        self.forwarded_count = 0
        #: Messages awaiting custody downhill — an ACK or an overheard
        #: forward — by inner-blob fingerprint (reliability extension;
        #: empty unless ``hop_ack_enabled``).
        self._retx: dict[bytes, _RetxEntry] = {}
        #: Fingerprints this node took custody of (accepted and forwarded,
        #: or is still forwarding). Distinct from the dedup cache, which
        #: also records messages merely *overheard* — re-ACKing those
        #: would claim custody the node never took. The value is the
        #: same-level node whose forward overtook ours, while this node
        #: stands by for it (None otherwise).
        self._custody: OrderedDict[bytes, int | None] = OrderedDict()
        #: Jittered forwards not yet sent, by fingerprint: the timer a
        #: forwarder that is overtaken cancels.
        self._pending: dict[bytes, "TimerHandle"] = {}

    # ------------------------------------------------------------------
    # Key setup (Sec. IV-B)
    # ------------------------------------------------------------------

    def start_setup(self) -> None:
        """Arm the phase-1 election timer and the phase-2/finish schedule."""
        cfg = self.config
        delay = float(self._rng.exponential(cfg.mean_hello_delay_s))
        # A node whose exponential draw exceeds phase 1 simply declares
        # itself head when phase 2 begins (the paper's singleton case).
        delay = min(delay, cfg.cluster_phase_duration_s * 0.999)
        self._hello_timer = self.node.schedule(delay, self._fire_hello)
        link_at = cfg.cluster_phase_duration_s + float(self._rng.uniform(0.0, LINK_JITTER_S))
        self.node.schedule(link_at, self._broadcast_linkinfo)
        self.node.schedule(cfg.setup_end_s, self._finish_setup)

    def _fire_hello(self) -> None:
        """Election timer expired: declare clusterhead and broadcast HELLO."""
        st = self.state
        if st.decided:
            return
        st.role = Role.HEAD
        st.cid = st.node_id
        st.keyring.store(st.node_id, st.preload.cluster_key)
        frame = messages.encode_hello(
            st.preload.master_key.material,
            st.node_id,
            st.preload.cluster_key.material,
            self.config.aead,
        )
        self._trace.count("tx.hello")
        self._trace.count("tx.setup")
        self.node.broadcast(frame)
        self._schedule_reannounce(frame, "tx.hello_reannounce")

    def _on_hello(self, frame: bytes) -> None:
        st = self.state
        if st.preload.master_key.erased:
            # Post-setup HELLOs are meaningless (and HELLO-flood fodder).
            self._trace.count("drop.hello_after_setup")
            return
        try:
            head_id, cluster_key = messages.decode_hello(
                st.preload.master_key.material, frame, self.config.aead
            )
        except (messages.MalformedMessage, AuthenticationError):
            self._trace.count("drop.hello_bad_auth")
            return
        if st.decided:
            # Already a member or head: reject (paper, Sec. IV-B.1 case 2).
            self._trace.count("drop.hello_already_decided")
            return
        st.role = Role.MEMBER
        st.cid = head_id
        st.keyring.store(head_id, SymmetricKey(cluster_key, label=f"Kc[{head_id}]"))
        if self._hello_timer is not None:
            self._hello_timer.cancel()
        self._trace.count("join.member")

    def _broadcast_linkinfo(self) -> None:
        """Phase 2: every node broadcasts its cluster's key once."""
        st = self.state
        if not st.decided:
            # The exponential cap above makes this unreachable in normal
            # runs, but failure injection (HELLOs lost to FaultPlan drop)
            # can leave a node undecided: it becomes a singleton head now.
            self._fire_hello()
        frame = messages.encode_linkinfo(
            st.preload.master_key.material,
            st.node_id,
            st.cid,
            st.keyring.get(st.cid).material,
            self.config.aead,
        )
        self._trace.count("tx.linkinfo")
        self._trace.count("tx.setup")
        self.node.broadcast(frame)
        self._schedule_reannounce(frame, "tx.linkinfo_reannounce")

    def _schedule_reannounce(self, frame: bytes, counter_name: str) -> None:
        """Arm bounded verbatim re-broadcasts of one setup frame.

        A lost HELLO leaves a node to become a spurious singleton head; a
        lost LINKINFO leaves edge nodes without a neighbor cluster's key.
        Re-announcing the *identical* sealed frame (no counter reuse — the
        bytes are the same transmission) gives setup convergence on a
        lossy channel. Disabled by default (``setup_reannounce_count=0``).
        """
        cfg = self.config
        for k in range(1, cfg.setup_reannounce_count + 1):
            self.node.schedule(
                k * cfg.setup_reannounce_interval_s,
                lambda: self._reannounce(frame, counter_name),
            )

    def _reannounce(self, frame: bytes, counter_name: str) -> None:
        if self.state.preload.master_key.erased or not self.node.alive:
            # Setup is over (or we crashed): a re-announcement would only
            # feed drop.*_after_setup counters at the receivers.
            return
        self._trace.count(counter_name)
        self._trace.count("tx.setup")
        self.node.broadcast(frame)

    def _on_linkinfo(self, frame: bytes) -> None:
        """A LINKINFO frame received alone: over UDP, as a delayed,
        duplicated or corrupted copy under fault injection, or by direct
        dispatch. Its count goes straight to the trace."""
        outcome = self._decide_linkinfo(LinkinfoReception(frame, self.node.now(), self._trace))
        if outcome is not None:
            self._trace.count(outcome)

    def _decide_linkinfo(self, reception: "LinkinfoReception") -> str | None:
        """This agent's decisions on one received LINKINFO frame.

        Returns the name of the counter the reception ends in, or None
        when the frame changes nothing here.
        """
        st = self.state
        master_key = st.preload.master_key
        if master_key.erased:
            return "drop.linkinfo_after_setup"
        try:
            _sender, cid, cluster_key = reception.verified(master_key.material, self.config.aead)
        except (messages.MalformedMessage, AuthenticationError):
            return "drop.linkinfo_bad_auth"
        if cid == st.cid or st.keyring.has(cid):
            # Same-cluster broadcast: ignore (paper, Sec. IV-B.2); or a
            # neighbor cluster already held.
            return None
        st.keyring.store(cid, SymmetricKey(cluster_key, label=f"Kc[{cid}]"))
        return "link.neighbor_cluster"

    def _finish_setup(self) -> None:
        """Erase ``K_m`` and demote heads: the network becomes operational.

        "From this point on, cluster heads turn to normal members, as there
        is no more need for a hierarchical structure." (Sec. IV-B.1)
        """
        st = self.state
        st.preload.master_key.erase()
        if st.role is Role.HEAD:
            st.role = Role.MEMBER
        self.operational = True

    # ------------------------------------------------------------------
    # Data plane (Sec. IV-C)
    # ------------------------------------------------------------------

    def send_reading(self, reading: bytes) -> None:
        """Originate a sensor reading towards the base station.

        Applies Step 1 when end-to-end encryption is configured, then
        Step 2 with this node's cluster key, and makes *one* broadcast.
        """
        st = self.state
        if not self.operational:
            raise ProtocolError("key setup has not completed")
        if st.cid is None or not st.keyring.has(st.cid):
            raise ProtocolError("node has no cluster key (evicted or orphaned)")
        if self.config.end_to_end_encryption:
            c1 = build_inner(
                st.node_id,
                reading,
                st.preload.node_key.material,
                st.next_e2e_counter(),
                self.config.aead,
                explicit_counter=self.config.e2e_counter_mode == "explicit",
            )
        else:
            c1 = build_inner(st.node_id, reading, None, None, self.config.aead)
        fp = DedupCache.fingerprint(c1)
        self._dedup.seen_before(fp)  # never re-forward our own message
        self._trace.count("tx.data_origin")
        self._transmit_hop(c1, fp)

    def _transmit_hop(self, c1: bytes, fp: bytes) -> None:
        st = self.state
        frame = wrap_hop(
            st.keyring.get(st.cid).material,
            st.cid,
            st.node_id,
            st.next_hop_seq(),
            self._gradient.level(st.node_id),
            self.node.now(),
            c1,
            self.config.aead,
        )
        self._trace.count("tx.data")
        self.node.broadcast(frame)
        if self.config.hop_ack_enabled:
            self._track_retx(c1, fp)

    # ------------------------------------------------------------------
    # Hop-by-hop reliability (live-runtime extension; off by default)
    # ------------------------------------------------------------------

    def _track_retx(self, c1: bytes, fp: bytes) -> None:
        """Await custody of ``c1`` (fingerprint ``fp``) downhill; arm the
        retransmission timer.

        Called after every hop transmission (first send and retransmits
        alike): the first call creates the queue entry, later calls only
        re-arm the timer with the next backoff step.
        """
        entry = self._retx.get(fp)
        if entry is None:
            if len(self._retx) >= RETX_QUEUE_LIMIT:
                # Queue bound reached: this transmission is send-and-pray.
                self._trace.count("net.retx.queue_full")
                return
            entry = self._retx[fp] = _RetxEntry(c1)
        delay = min(
            ACK_TIMEOUT_S * RETX_BACKOFF_FACTOR**entry.attempt,
            RETX_BACKOFF_MAX_S,
        ) + float(self._rng.uniform(0.0, RETX_JITTER_S))
        entry.timer = self.node.schedule(delay, lambda: self._retx_fire(fp))

    def _retx_fire(self, fp: bytes) -> None:
        """No ACK or downhill forward heard: retransmit (re-wrapped, fresh
        seq) or give up."""
        entry = self._retx.get(fp)
        if entry is None:
            return
        st = self.state
        if not self.node.alive or st.cid is None or not st.keyring.has(st.cid):
            # Crashed or revoked mid-wait: the queue entry is dead weight.
            del self._retx[fp]
            self._custody.pop(fp, None)
            return
        entry.attempt += 1
        if entry.attempt > MAX_RETRANSMITS:
            del self._retx[fp]
            # Custody is renounced: an upstream retransmit must not be
            # re-ACKed by a node that failed to progress the message.
            self._custody.pop(fp, None)
            self._trace.count("forward.giveup")
            return
        self._trace.count("net.retx.sent")
        # Re-wrap under a fresh hop sequence number: the original bytes
        # repeat a seq the receivers' anti-replay windows already hold, so
        # they would be dropped. Duplicate suppression still works — it
        # keys on the invariant inner blob, not the hop wrapper.
        self._transmit_hop(entry.c1, fp)

    def on_offline(self) -> None:
        """Crash hook: flush the forwarding queues and renounce custody.

        Called by :meth:`repro.runtime.node.NodeRuntime.offline` (and
        ``die``). A crashed mote loses its volatile queues: every pending
        retransmit timer and jittered forward is cancelled so it cannot
        fire into a restarted — possibly key-refreshed — epoch, and
        custody is renounced so a later upstream retransmit is never
        re-ACKed by a node that lost the message. The cancelled forwards
        are not counted as drops: the node went away, not the reading.
        Keys and protocol state survive (a reboot, not a reprovision).
        """
        for timer in self._pending.values():
            timer.cancel()
        self._pending.clear()
        if not self._retx and not self._custody:
            return
        flushed = 0
        for entry in self._retx.values():
            if entry.timer is not None:
                entry.timer.cancel()
                flushed += 1
        self._retx.clear()
        self._custody.clear()
        if flushed:
            self._trace.count("net.retx.flushed", flushed)

    def _take_custody(self, fp: bytes) -> None:
        """Record that this node owns forwarding the message ``fp`` (bounded set)."""
        self._custody[fp] = None
        self._custody.move_to_end(fp)
        if len(self._custody) > DEDUP_CACHE_SIZE:
            self._custody.popitem(last=False)

    def _send_ack(self, cid: int, hop_sender: int, fp: bytes) -> None:
        """Broadcast a custody ACK for the message ``fp``, addressed to ``hop_sender``."""
        st = self.state
        if not st.keyring.has(cid):
            return
        tag = mac(
            st.keyring.get(cid).material,
            messages.ack_mac_input(cid, hop_sender, fp),
            self.config.tag_len,
        )
        self._trace.count("tx.ack")
        self.node.broadcast(messages.encode_ack(cid, hop_sender, fp, tag))

    def _reack(self, header: messages.DataHeader, fp: bytes) -> None:
        """Re-ACK a copy of ``fp`` this node already holds custody of.

        The hop sender may be retransmitting because it heard neither our
        forward nor an ACK. "Seen" includes messages merely overheard and
        dropped (e.g. uphill receptions), so only a node that took custody
        and is downhill of the hop sender (the node an ACK is expected
        from) may re-ACK; anything else would cancel the sender's
        retransmissions without anyone owning the message.
        """
        if (
            self.config.hop_ack_enabled
            and fp in self._custody
            and 0 <= self._gradient.level(self.state.node_id) < header.hops_to_bs
        ):
            self._send_ack(header.cid, header.sender, fp)

    def _on_ack(self, frame: bytes) -> None:
        if not self.config.hop_ack_enabled:
            self._trace.count("drop.unknown_type")
            return
        try:
            cid, hop_sender, fp, tag = messages.decode_ack(frame, self.config.tag_len)
        except messages.MalformedMessage:
            self._trace.count("drop.ack_malformed")
            return
        st = self.state
        if hop_sender != st.node_id or fp not in self._retx:
            # ACKs are broadcast: every neighbor of the custodian hears
            # them, so most receptions are addressed to somebody else (or
            # to a transmission already acknowledged).
            self._trace.count("drop.ack_unmatched")
            return
        if not st.keyring.has(cid):
            self._trace.count("drop.ack_unknown_cluster")
            return
        if not verify(
            st.keyring.get(cid).material,
            messages.ack_mac_input(cid, hop_sender, fp),
            tag,
        ):
            self._trace.count("drop.ack_bad_auth")
            return
        self._retx_done(fp, "net.retx.acked")

    def _retx_done(self, fp: bytes, counter: str) -> None:
        """Custody of ``fp`` passed downhill: stop its retransmit timer."""
        entry = self._retx.pop(fp)
        if entry.timer is not None:
            entry.timer.cancel()
        self._trace.count(counter)

    def _on_data(self, frame: bytes) -> None:
        """A DATA frame received alone: over UDP, as a delayed, duplicated
        or corrupted copy under fault injection, or by direct dispatch.

        A reception with one receiver shares nothing, so its counts go
        straight to the trace and there is nothing left to close.
        """
        outcome = self._decide_data(DataReception(frame, self.node.now(), self._trace), None)
        if outcome is not None:
            self._trace.count(outcome)

    def _decide_data(
        self, reception: "DataReception", counts: dict[str, int] | None
    ) -> str | None:
        """This agent's decisions on one received DATA frame.

        Returns the name of the counter the reception ends in, or None
        when the frame is accepted for forwarding. ``counts``, when
        given, collects the dedup cache's own counts.
        """
        st = self.state
        if not self.operational:
            return "drop.data_before_operational"
        header = reception.header
        if header is None:
            return "drop.data_malformed"
        if not st.keyring.has(header.cid):
            # Not a neighboring cluster (or revoked): cannot authenticate.
            return "drop.data_unknown_cluster"
        try:
            c1, fp = reception.unwrap(st.keyring.get(header.cid).material, self.config)
        except AuthenticationError:
            return "drop.data_bad_auth"
        except StaleMessage:
            return "drop.data_stale"
        except KeyErasedError:
            return "drop.data_unknown_cluster"
        if not st.accept_hop_seq(header.sender, header.seq):
            # Authenticated but already-seen hop sequence (a link-layer
            # duplicate, or an out-of-order seq carrying a new message).
            self._reack(header, fp)
            return "drop.data_replay"
        if fp in self._retx and 0 <= header.hops_to_bs < self._gradient.level(st.node_id):
            # The forward is the ACK: a node closer to the BS sent on a
            # reading we await custody for, and the broadcast that carries
            # it on reaches us too. Checked before the dedup lookup: to
            # us this copy is a duplicate.
            self._retx_done(fp, "net.retx.overheard")
        if self._dedup.seen_before(fp, counts):
            pending = self._pending.get(fp)
            if pending is not None and 0 <= header.hops_to_bs <= self._gradient.level(st.node_id):
                # Overtaken: a node no farther from the BS than we are
                # already sent the reading on, so our forward would only
                # add a frame (the counter-based broadcast-storm scheme of
                # Ni et al., MobiCom 1999, with one overheard copy).
                # Custody stays recorded: an upstream retransmit is still
                # re-ACKed (the only ACK a suppressed custodian sends), and
                # the overheard forwarder tracks its own. A same-level
                # overtaker is remembered: we stand by for it.
                del self._pending[fp]
                pending.cancel()
                self._trace.count("forward.suppressed")
                if header.hops_to_bs == self._gradient.level(st.node_id) and fp in self._custody:
                    self._custody[fp] = header.sender
            elif self._custody.get(fp) == header.sender:
                # Standby: the node that overtook us retransmits, so it got
                # no ACK and heard no downhill forward. Forward it once.
                self._custody[fp] = None
                self._trace.count("forward.standby")
                self._forward_later(c1, fp)
            self._reack(header, fp)
            return "drop.data_duplicate"
        return self._process_inner(header, c1, fp)

    def _process_inner(
        self, header: messages.DataHeader, c1: bytes, fp: bytes
    ) -> str | None:
        """Data-fusion hook, then the gradient forwarding decision.

        Returns the name of the drop counter, or None once the message
        is accepted for forwarding. ``c1`` is parsed only when a fusion
        hook reads it.
        """
        st = self.state
        if len(c1) < INNER_HEADER_SIZE:
            # Authenticated by a cluster-key holder, but no envelope.
            return "drop.data_malformed"
        if self.fusion is not None:
            try:
                envelope = parse_inner(c1)
            except ValueError:
                return "drop.data_malformed"
            # "Nodes can 'peak' at encrypted data using their cluster key
            # and decide upon forwarding or discarding redundant
            # information" — with Step 1 off the reading itself is visible.
            if not envelope.encrypted and self.fusion.should_discard(envelope.payload):
                return "drop.data_fused"
        level = self._gradient.level(st.node_id)
        if level < 0 or header.hops_to_bs < 0:
            return "drop.data_no_route"
        if level >= header.hops_to_bs:
            # Uphill or sideways: not on a shortest path, stay silent.
            return "drop.data_uphill"
        if st.cid is None or not st.keyring.has(st.cid):
            return "drop.data_no_cluster_key"
        self.forwarded_count += 1
        if self.config.hop_ack_enabled:
            # Custody accepted (we are downhill and will forward). No ACK:
            # the hop sender overhears our forward, and a retransmission
            # it sends meanwhile is re-ACKed by the duplicate branch.
            self._take_custody(fp)
        jitter = self.config.forward_jitter_s
        if jitter > 0 and self._gradient.parent(header.sender) != st.node_id:
            # A backup: the hop sender's gradient parent forwards at once,
            # so wait one jitter window to hear it (and stand down) first —
            # prioritised forwarders, as in ExOR (Biswas & Morris, SIGCOMM
            # 2005). Without jitter, every forwarder sends at once.
            delay = jitter + float(self._rng.uniform(0.0, jitter))
            self._pending[fp] = self.node.schedule(delay, lambda: self._forward_later(c1, fp))
        else:
            self._transmit_hop(c1, fp)
        return None

    def _forward_later(self, c1: bytes, fp: bytes) -> None:
        """Jittered or standby forward; re-checks the keys (revocation may
        have landed since the reading was accepted)."""
        self._pending.pop(fp, None)
        st = self.state
        if not self.node.alive or st.cid is None or not st.keyring.has(st.cid):
            self._trace.count("drop.data_no_cluster_key")
            # We took custody at acceptance but can no longer forward.
            self._custody.pop(fp, None)
            return
        self._transmit_hop(c1, fp)

    # ------------------------------------------------------------------
    # Revocation (Sec. IV-D)
    # ------------------------------------------------------------------

    def _on_revoke(self, frame: bytes) -> None:
        st = self.state
        try:
            index, chain_key, cids, tag = messages.decode_revoke(frame, self.config.tag_len)
        except messages.MalformedMessage:
            self._trace.count("drop.revoke_malformed")
            return
        if st.chain.is_duplicate(index, chain_key):
            # An echo of a flood already applied (or a replay of one).
            self._trace.count("drop.revoke_duplicate")
            return
        if index > REVOCATION_CHAIN_LENGTH or not st.chain.verify(
            index, chain_key
        ):
            # A key that does not hash to the commitment. An index past
            # the chain's end cannot verify; walking to it would cost up
            # to 2^32 hash steps for one forged or corrupted frame.
            self._trace.count("drop.revoke_bad_chain")
            return
        if not verify(chain_key, messages.revoke_mac_input(index, cids), tag):
            self._trace.count("drop.revoke_bad_mac")
            return
        for cid in cids:
            if st.keyring.has(cid):
                st.keyring.remove(cid)
                self._trace.count("revoke.key_deleted")
            self._refresh_epochs.pop(cid, None)
            if cid == st.cid:
                # Our own cluster was revoked: we can no longer originate.
                st.cid = None
        self._trace.count("rx.revoke_applied")
        # Flood onward exactly once (re-receptions are duplicates).
        self._trace.count("tx.revoke_flood")
        self.node.broadcast(frame)

    # ------------------------------------------------------------------
    # New-node addition, responder side (Sec. IV-E)
    # ------------------------------------------------------------------

    def _on_join_req(self, frame: bytes) -> None:
        st = self.state
        if not self.operational or st.cid is None or not st.keyring.has(st.cid):
            return
        try:
            new_id = messages.decode_join_req(frame)
        except messages.MalformedMessage:
            self._trace.count("drop.join_req_malformed")
            return
        cid = st.cid
        tag = mac(
            st.keyring.get(cid).material,
            messages.join_resp_mac_input(cid, new_id),
            self.config.tag_len,
        )
        resp = messages.encode_join_resp(cid, tag)
        delay = float(self._rng.uniform(0.0, JOIN_RESPONSE_JITTER_S))
        self.node.schedule(delay, lambda: self._send_join_resp(resp))

    def _send_join_resp(self, resp: bytes) -> None:
        self._trace.count("tx.join_resp")
        self.node.broadcast(resp)

    # ------------------------------------------------------------------
    # Key refresh (Sec. IV-C / VI)
    # ------------------------------------------------------------------

    def apply_hash_refresh(self) -> None:
        """Hash-based refresh: replace every stored key K with F(K).

        Purely local ("renew the cluster keys by periodically hashing these
        keys at fixed time intervals") — no messages, nothing for an
        adversary to exploit, which is why Sec. VI prefers it.
        """
        from repro.crypto.kdf import refresh_key  # local import: avoid cycle

        st = self.state
        for cid in st.keyring.cluster_ids():
            old = st.keyring.get(cid)
            st.keyring.store(cid, SymmetricKey(refresh_key(old.material), label=old.label))
            old.erase()
        st.refresh_epoch += 1

    def _on_refresh(self, frame: bytes) -> None:
        st = self.state
        try:
            cid, epoch = messages.refresh_header(frame)
        except messages.MalformedMessage:
            self._trace.count("drop.refresh_malformed")
            return
        if not st.keyring.has(cid):
            self._trace.count("drop.refresh_unknown_cluster")
            return
        if epoch <= self._refresh_epochs.get(cid, 0):
            self._trace.count("drop.refresh_replay")
            return
        old = st.keyring.get(cid)
        try:
            _, _, new_key = messages.decode_refresh(old.material, frame, self.config.aead)
        except (AuthenticationError, messages.MalformedMessage):
            self._trace.count("drop.refresh_bad_auth")
            return
        st.keyring.store(cid, SymmetricKey(new_key, label=old.label))
        old.erase()
        self._refresh_epochs[cid] = epoch
        self._trace.count("refresh.applied")
        # Re-flood once so every holder of the old key hears the refresh:
        # the initiator reaches the cluster members (all within one hop of
        # the head), and their re-broadcasts reach the edge nodes of
        # neighboring clusters. The epoch check above stops the flood.
        self._trace.count("tx.refresh_flood")
        self.node.broadcast(frame)

    def originate_refresh(self, new_key: bytes, epoch: int) -> None:
        """Broadcast a new key for this node's cluster under the old key.

        Used by the "recluster" refresh strategy: one member per cluster
        (the orchestrator's pick) generates and distributes the
        replacement. Constrained within existing clusters, which is the
        paper's defense against HELLO-flood at refresh time.
        """
        st = self.state
        if st.cid is None or not st.keyring.has(st.cid):
            raise ProtocolError("cannot refresh without a cluster key")
        frame = messages.encode_refresh(
            st.keyring.get(st.cid).material, st.cid, epoch, new_key, self.config.aead
        )
        self._trace.count("tx.refresh")
        self.node.broadcast(frame)
        # Apply locally through the same handler path.
        self._on_refresh(frame)

    # ------------------------------------------------------------------
    # Unconstrained re-clustering refresh (Sec. IV-C, first variant)
    # ------------------------------------------------------------------
    #
    # "Sensor nodes can repeat the key setup phase with a predefined
    # period in order to form new clusters and new cluster keys. Since
    # K_m is no longer available ... the current cluster key may be used
    # by the nodes instead." This is the variant Sec. VI then shows to be
    # HELLO-floodable by an attacker holding a stolen cluster key; it is
    # implemented so the refresh-strategy experiment can demonstrate both
    # the attack and why the constrained/hashing defenses close it.

    def begin_reelection(self, epoch: int, phase_duration_s: float) -> None:
        """Arm this node for a new-cluster election round.

        Schedule mirrors the initial setup: an exponential election timer
        within ``phase_duration_s``, then a link re-broadcast jittered
        just after it (so neighbors re-learn cross-cluster keys).
        """
        st = self.state
        if st.cid is None or not st.keyring.has(st.cid):
            # Orphaned nodes cannot authenticate an election message.
            return
        self._reelect_epoch = epoch
        self._reelect_active = True
        self._reelect_decided = False
        self._staged_keys = {}
        self._staged_cid = None
        delay = min(
            float(self._rng.exponential(self.config.mean_hello_delay_s)),
            phase_duration_s * 0.999,
        )
        self._reelect_timer = self.node.schedule(delay, self._fire_reelect_hello)
        link_at = phase_duration_s + float(self._rng.uniform(0.0, LINK_JITTER_S))
        self.node.schedule(link_at, self._broadcast_reelect_link)

    def _fire_reelect_hello(self) -> None:
        st = self.state
        if not self._reelect_active or self._reelect_decided:
            return
        new_key = self._rng.integers(0, 256, size=16, dtype="uint8").tobytes()
        self._reelect_decided = True
        self._staged_cid = st.node_id
        self._staged_keys[st.node_id] = new_key
        frame = messages.encode_reelect_hello(
            st.keyring.get(st.cid).material,
            st.cid,
            st.node_id,
            self._reelect_epoch,
            new_key,
            self.config.aead,
        )
        self._trace.count("tx.reelect_hello")
        self.node.broadcast(frame)

    def _broadcast_reelect_link(self) -> None:
        """Link phase of re-election: re-announce the joined cluster's key
        under the old cluster key, for neighboring clusters' edge nodes."""
        st = self.state
        if not self._reelect_active or self._staged_cid is None:
            return
        if st.cid is None or not st.keyring.has(st.cid):
            return
        frame = messages.encode_reelect_hello(
            st.keyring.get(st.cid).material,
            st.cid,
            st.node_id,
            self._reelect_epoch,
            self._staged_keys[self._staged_cid],
            self.config.aead,
            new_cid=self._staged_cid,
        )
        self._trace.count("tx.reelect_link")
        self.node.broadcast(frame)

    def _on_reelect_hello(self, frame: bytes) -> None:
        st = self.state
        if not self._reelect_active:
            self._trace.count("drop.reelect_inactive")
            return
        try:
            old_cid, _sender, epoch = messages.reelect_header(frame)
        except messages.MalformedMessage:
            self._trace.count("drop.reelect_malformed")
            return
        if epoch != self._reelect_epoch or not st.keyring.has(old_cid):
            self._trace.count("drop.reelect_unusable")
            return
        try:
            _, sender, _, new_cid, new_key = messages.decode_reelect_hello(
                st.keyring.get(old_cid).material, frame, self.config.aead
            )
        except (AuthenticationError, messages.MalformedMessage):
            self._trace.count("drop.reelect_bad_auth")
            return
        # Learn the new cluster's key either way (neighbor-cluster link).
        self._staged_keys[new_cid] = new_key
        if sender == new_cid and not self._reelect_decided:
            # A head declaration from within radio range: join it.
            self._reelect_decided = True
            self._staged_cid = new_cid
            if self._reelect_timer is not None:
                self._reelect_timer.cancel()
            self._trace.count("reelect.joined")

    def finish_reelection(self) -> None:
        """Swap the staged keys in: the new clustering becomes operative."""
        st = self.state
        if not self._reelect_active:
            return
        self._reelect_active = False
        if self._staged_cid is None:
            # Heard nothing and never fired (only possible for orphans).
            return
        for cid in st.keyring.cluster_ids():
            st.keyring.remove(cid)
        for cid, key in self._staged_keys.items():
            st.keyring.store(cid, SymmetricKey(key, label=f"Kc[{cid}]"))
        st.cid = self._staged_cid
        st.role = Role.MEMBER
        self._staged_keys = {}

    # ------------------------------------------------------------------
    # Frame dispatch
    # ------------------------------------------------------------------

    _DISPATCH: dict[int, str] = {
        messages.HELLO: "_on_hello",
        messages.LINKINFO: "_on_linkinfo",
        messages.DATA: "_on_data",
        messages.REVOKE: "_on_revoke",
        messages.JOIN_REQ: "_on_join_req",
        messages.REFRESH: "_on_refresh",
        messages.REELECT_HELLO: "_on_reelect_hello",
        messages.ACK: "_on_ack",
    }

    def on_frame(self, sender_id: int, frame: bytes) -> None:
        """Link-layer entry point. ``sender_id`` is unauthenticated and is
        deliberately ignored by every handler."""
        if not frame:
            return
        handler_name = self._DISPATCH.get(frame[0])
        if handler_name is None:
            self._trace.count("drop.unknown_type")
            return
        handler: Callable[[bytes], None] = getattr(self, handler_name)
        handler(frame)


class SharedReception:
    """One frame's reception by every agent that hears its broadcast.

    A frame is sealed once and heard by all of its sender's neighbours.
    What depends only on the frame — its parse and its open — is
    resolved once per reception, and each receiving agent then makes only
    its own decisions, in the order it hears the frame. Subclasses say
    how a frame is opened (:meth:`_open_alone`) and which of the agent's
    decisions it reaches (:meth:`_decide`).

    The first receiver whose open verifies holds it, and that open
    serves every later receiver of this reception whose key equals the
    verifying one (compared in constant time) and whose AEAD settings
    are the same object. Any other receiver opens the frame itself, so
    every receiver ends exactly as it would alone. Nothing outlives the
    reception. Trace counts and the crypto ``STATS`` of shared opens
    (what an open-memo hit of :func:`~repro.crypto.aead.open_` counts)
    are collected here and added once per frame and outcome by
    :meth:`close`.

    A reception with one receiver (UDP, a delayed, duplicated or
    corrupted copy under fault injection, and direct dispatch) counts as
    it goes. The loopback fan-out, with or without a fault plan, runs one
    reception for all of a frame's immediate receivers (see
    :attr:`repro.sim.radio.Radio.receptions`) and hands every app that is
    not a :class:`ProtocolAgent` the frame through its own ``on_frame``.
    """

    __slots__ = (
        "frame",
        "now",
        "trace",
        "_counts",
        "_opened",
        "_key",
        "_aead",
        "_blocks",
        "_vector",
        "_hits",
    )

    def __init__(self, frame: bytes, now: float, trace: "Trace") -> None:
        """``now`` is the protocol time every receiver hears the frame at;
        ``trace`` is the deployment's, which :meth:`close` counts into."""
        self.frame = frame
        self.now = now
        self.trace = trace
        #: Counter increments for ``trace``, added by :meth:`close`.
        self._counts: dict[str, int] = {}
        #: The shared open, the key that verified it, its AEAD settings,
        #: the keystream blocks it counted and whether the batched kernel
        #: made them, and the opens it served since they were counted.
        self._opened: Any = None
        self._key = b""
        self._aead: AeadConfig | None = None
        self._blocks = 0
        self._vector = False
        self._hits = 0

    def deliver(self, app: Any, sender_id: int) -> None:
        """Hand the frame to a receiving node's ``app``.

        A :class:`ProtocolAgent` makes its decisions here and its outcome
        is tallied (an agent counting into another trace counts there
        directly); any other app gets the frame through ``on_frame``.
        """
        if type(app) is not ProtocolAgent:
            app.on_frame(sender_id, self.frame)
            return
        counts = self._counts if app._trace is self.trace else None
        outcome = self._decide(app, counts)
        if outcome is None:
            return
        if counts is None:
            app._trace.count(outcome)
        else:
            counts[outcome] = counts.get(outcome, 0) + 1

    def _decide(self, app: ProtocolAgent, counts: dict[str, int] | None) -> str | None:
        """``app``'s decisions on the frame: the counter it ends in, or None."""
        raise NotImplementedError

    def _open_alone(self, key: bytes, aead: AeadConfig) -> Any:
        """One receiver's own open of the frame under ``key``."""
        raise NotImplementedError

    def verified(self, key: bytes, aead: AeadConfig) -> Any:
        """One receiver's open of the frame under ``key``: the shared one
        if it verified under an equal key and the same settings object,
        else this receiver's own (:meth:`_open_alone`, which raises what
        it raises)."""
        opened = self._opened
        if opened is not None and aead is self._aead and compare_digest(key, self._key):
            self._hits += 1
            return opened
        blocks, vector_blocks = STATS.keystream_blocks, STATS.keystream_vector_blocks
        opened = self._open_alone(key, aead)
        # Verified under ``key``: later receivers with an equal key
        # share this open.
        if self._hits:
            self._count_hits()
        self._opened = opened
        self._key = key
        self._aead = aead
        self._blocks = STATS.keystream_blocks - blocks
        self._vector = STATS.keystream_vector_blocks != vector_blocks
        return opened

    def _count_hits(self) -> None:
        """Count in ``STATS`` what the shared opens would have counted."""
        hits = self._hits
        self._hits = 0
        STATS.opens += hits
        blocks = self._blocks * hits
        STATS.keystream_blocks += blocks
        if self._vector:
            STATS.keystream_vector_blocks += blocks
        STATS.keystream_reused_blocks += blocks

    def close(self) -> None:
        """Add the reception's counts to the trace and to ``STATS``."""
        if self._hits:
            self._count_hits()
        for name, amount in self._counts.items():
            self.trace.count(name, amount)


class DataReception(SharedReception):
    """One DATA frame's reception by every agent that hears its broadcast.

    The header and the hop-layer open
    (:func:`~repro.protocol.forwarding.unwrap_hop`, shared under an equal
    cluster key) are resolved once; each receiving agent then makes only
    its own decisions (:meth:`ProtocolAgent._decide_data`): its
    operational state, its key for the header's CID, freshness against
    its own clock, its hop anti-replay, its dedup cache, then custody,
    ACK and forwarding. :meth:`ProtocolAgent._on_data` is a reception
    with one receiver.
    """

    __slots__ = ("header", "_sealed")

    def __init__(self, frame: bytes, now: float, trace: "Trace") -> None:
        """See :class:`SharedReception`."""
        super().__init__(frame, now, trace)
        self.header: messages.DataHeader | None
        try:
            self.header, self._sealed = messages.decode_data_view(frame)
        except messages.MalformedMessage:
            self.header = None

    def _decide(self, app: ProtocolAgent, counts: dict[str, int] | None) -> str | None:
        return app._decide_data(self, counts)

    def unwrap(self, cluster_key: bytes, config: ProtocolConfig) -> tuple[bytes, bytes]:
        """One receiver's hop-layer open: ``(c1, fingerprint)``.

        Same contract as :func:`~repro.protocol.forwarding.unwrap_hop`
        followed by :func:`~repro.protocol.forwarding.check_fresh` with
        the reception's clock.

        Raises:
            AuthenticationError: tag failure under ``cluster_key``.
            StaleMessage: τ outside ``config.freshness_window_s``.
        """
        tau_s, c1, fingerprint = self.verified(cluster_key, config.aead)
        check_fresh(tau_s, self.now, config.freshness_window_s)
        return c1, fingerprint

    def _open_alone(self, key: bytes, aead: AeadConfig) -> tuple[float, bytes, bytes]:
        assert self.header is not None
        return unwrap_hop(key, self.header, self._sealed, aead)


class LinkinfoReception(SharedReception):
    """One LINKINFO frame's reception by every agent that hears its broadcast.

    Phase 2 seals each node's ``CID | K_c`` once under the network-wide
    ``K_m`` (Sec. IV-B.2), so every neighbour opens the same frame under
    an equal key: :func:`~repro.protocol.messages.decode_linkinfo` runs
    once, for the first receiver that still holds ``K_m``, and serves
    every later receiver holding an equal ``K_m``; :meth:`verified`
    returns what it returns. Each receiver then makes its own decisions
    (:meth:`ProtocolAgent._decide_linkinfo`): the erased-``K_m`` drop, the
    same-cluster ignore and the keyring store.
    :meth:`ProtocolAgent._on_linkinfo` is a reception with one receiver.
    """

    __slots__ = ()

    def _decide(self, app: ProtocolAgent, counts: dict[str, int] | None) -> str | None:
        return app._decide_linkinfo(self)

    def _open_alone(self, key: bytes, aead: AeadConfig) -> tuple[int, int, bytes]:
        return messages.decode_linkinfo(key, self.frame, aead)
