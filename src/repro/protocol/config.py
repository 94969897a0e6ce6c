"""Protocol configuration.

All tunables of the paper's protocol in one frozen dataclass, validated at
construction. The defaults reproduce the paper's simulation setting; the
ablation benches sweep individual fields. Values no deployment, bench or
experiment sets are module constants instead.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from repro.crypto.aead import AeadConfig
from repro.util.validate import check_positive

#: Key-refresh strategies of Sec. IV-C / VI. ``"rehash"`` replaces every
#: cluster key K with F(K) in place (the variant the paper recommends
#: against HELLO-flood at refresh); ``"recluster"`` re-runs key
#: distribution within existing clusters under the current cluster key;
#: ``"reelect"`` is the paper's first proposal — a full new election under
#: current cluster keys — kept to demonstrate the Sec. VI HELLO-flood
#: vulnerability that motivates the other two.
REFRESH_STRATEGIES = ("rehash", "recluster", "reelect")

#: Link-info broadcasts are jittered uniformly over this window (seconds)
#: to avoid synchronized collisions.
LINK_JITTER_S = 1.0
#: Bound on the per-node duplicate-suppression cache (and custody set).
DEDUP_CACHE_SIZE = 4096
#: Length of the base station's revocation key chain.
REVOCATION_CHAIN_LENGTH = 64
#: How many counter values past the last synchronized one the base
#: station tries when decrypting Step-1 payloads in the ``"implicit"``
#: counter mode ("the receiver can try a small window of counter values").
COUNTER_WINDOW = 32
#: How long a joining node collects JOIN_RESP messages (seconds).
JOIN_WINDOW_S = 1.0
#: Max delay of a JOIN_RESP (responders jitter to avoid collisions).
JOIN_RESPONSE_JITTER_S = 0.5


@dataclass(frozen=True)
class ProtocolConfig:
    """Tunables for one protocol deployment."""

    # -- crypto -------------------------------------------------------------
    cipher: str = "speck64/128"
    tag_len: int = 8

    # -- cluster key setup (Sec. IV-B) ---------------------------------------
    #: Mean of the exponential clusterhead-election delay. The *rate* is
    #: its inverse; the paper notes singleton clusters are "minimized by
    #: the right exponential distribution" — the timer ablation sweeps this.
    mean_hello_delay_s: float = 0.5
    #: When phase 2 (secure link establishment) begins. Must comfortably
    #: exceed the election delays plus HELLO airtime so every node has
    #: decided its role.
    cluster_phase_duration_s: float = 5.0
    #: Extra settling time after the last possible link broadcast before
    #: K_m is erased and the network is declared operational.
    settle_margin_s: float = 1.0

    # -- secure forwarding (Sec. IV-C) ---------------------------------------
    #: Step 1 on/off: end-to-end encryption of readings under K_i. Off
    #: enables in-network data fusion on plaintext readings.
    end_to_end_encryption: bool = True
    #: Counter handling for Step 1 (Sec. IV-C leaves "the choice to the
    #: particular deployment scenario"): "implicit" maintains the counter
    #: at both ends and recovers desync with a trial window; "explicit"
    #: transmits the counter (6 extra bytes/message) and never desyncs;
    #: the implicit window is :data:`COUNTER_WINDOW`.
    e2e_counter_mode: str = "implicit"
    #: Hop-layer freshness: frames whose timestamp τ is older are dropped.
    freshness_window_s: float = 30.0
    #: Forwarding backoff window. One reception triggers several
    #: downhill forwarders at once; without a backoff they all key up
    #: simultaneously and collide (the classic flooding broadcast
    #: storm). The hop sender's gradient parent forwards at once; every
    #: other downhill receiver waits this long plus a uniform draw from
    #: it, so it hears the parent and stands down. Zero makes every
    #: forwarder send at once (useful for step-debug tests); has no
    #: effect on the single transmission a source makes.
    forward_jitter_s: float = 0.05

    # -- hop-by-hop reliability (live-runtime extension, default off) --------
    #: Per-hop custody + retransmission: a sender stops on an overheard
    #: downhill forward or an explicit ACK (the BS's, or a custodian's
    #: re-ACK of a retransmission). Off by default: the paper's
    #: protocol has no ACKs, and the runtime parity tests pin the default
    #: behavior. Enable for lossy live fabrics (see docs/RUNTIME.md).
    hop_ack_enabled: bool = False
    #: Times each HELLO / LINKINFO setup broadcast is re-announced so
    #: clustering converges on a lossy channel. 0 (default) disables;
    #: re-announcements are verbatim re-broadcasts (same sealed bytes, so
    #: no counter is ever reused) and stop once K_m is erased. Budget
    #: ``settle_margin_s`` for the extra ``count * interval`` tail.
    setup_reannounce_count: int = 0
    #: Spacing between successive re-announcements.
    setup_reannounce_interval_s: float = 1.0

    # -- maintenance ----------------------------------------------------------
    refresh_strategy: str = "rehash"

    def __post_init__(self) -> None:
        # cipher and tag_len are validated by the AEAD parameters they
        # build, which this access constructs and caches.
        self.aead
        check_positive("mean_hello_delay_s", self.mean_hello_delay_s)
        check_positive("cluster_phase_duration_s", self.cluster_phase_duration_s)
        check_positive("settle_margin_s", self.settle_margin_s)
        check_positive("freshness_window_s", self.freshness_window_s)
        if self.e2e_counter_mode not in ("implicit", "explicit"):
            raise ValueError(
                f"e2e_counter_mode must be 'implicit' or 'explicit', "
                f"got {self.e2e_counter_mode!r}"
            )
        if self.forward_jitter_s < 0:
            raise ValueError("forward_jitter_s must be >= 0")
        if self.refresh_strategy not in REFRESH_STRATEGIES:
            raise ValueError(
                f"refresh_strategy must be one of {REFRESH_STRATEGIES}, "
                f"got {self.refresh_strategy!r}"
            )
        check_positive("setup_reannounce_interval_s", self.setup_reannounce_interval_s)
        if self.setup_reannounce_count < 0:
            raise ValueError("setup_reannounce_count must be >= 0")
        if self.cluster_phase_duration_s < 4 * self.mean_hello_delay_s:
            raise ValueError(
                "cluster_phase_duration_s should be at least 4x the mean "
                "HELLO delay or nodes may still be undecided at phase 2"
            )

    @cached_property
    def aead(self) -> AeadConfig:
        """The AEAD parameters implied by this configuration.

        Built once per configuration: every seal and open on the data
        plane reads it.
        """
        return AeadConfig(cipher=self.cipher, tag_len=self.tag_len)

    @property
    def setup_end_s(self) -> float:
        """Simulation time at which key setup completes and K_m is erased."""
        return self.cluster_phase_duration_s + LINK_JITTER_S + self.settle_margin_s
