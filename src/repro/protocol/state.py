"""Per-node protocol state.

Everything a mote stores for the protocol lives here: its role, cluster
membership, the key ring ``S``, the preloaded keys, counters and caches.
Keeping state in one inspectable object makes the metrics of Section V
(keys per node, cluster sizes) direct attribute reads, and lets the
adversary model (node capture) extract *exactly* what a physical attack
would extract — no more, no less.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from repro.crypto.keychain import ChainVerifier
from repro.crypto.keys import KeyRing, SymmetricKey


#: Width of the hop anti-replay window: an unseen hop seq fewer than
#: this many below a sender's high-water mark is still accepted, once
#: (the 32-bit bitmap window of RFC 4303, Sec. 3.4.3).
HOP_SEQ_WINDOW = 32
_WINDOW_MASK = (1 << HOP_SEQ_WINDOW) - 1


def accept_hop_seq(windows: dict[int, int], sender: int, seq: int) -> bool:
    """Windowed anti-replay check of one hop sequence number.

    ``windows[sender]`` packs the sender's high-water mark (above the
    low :data:`HOP_SEQ_WINDOW` bits) with a bitmap of the seqs seen at
    and below it (bit ``k`` stands for ``high - k``); it costs 4 bytes
    per neighbour beyond the mark itself. A seq above the mark slides
    the window; an unseen seq inside it is accepted once; a repeat, or
    anything older than the window, is rejected. Seq 0 is never valid.
    """
    packed = windows.get(sender, 1)
    high = packed >> HOP_SEQ_WINDOW
    if seq > high:
        shift = seq - high
        bitmap = (packed << shift | 1) & _WINDOW_MASK if shift < HOP_SEQ_WINDOW else 1
        windows[sender] = seq << HOP_SEQ_WINDOW | bitmap
        return True
    age = high - seq
    if age >= HOP_SEQ_WINDOW or packed >> age & 1:
        return False
    windows[sender] = packed | 1 << age
    return True


class Gradient:
    """The deployment's routing gradient, which every agent reads.

    What a gradient beacon would carry, refilled by
    :meth:`~repro.protocol.setup.DeployedProtocol.assign_gradient`. Both
    lists are indexed by node id: ``levels`` holds the hop distance to
    the base station (the BS 0, an unroutable node -1), ``parents`` each
    routable node's next hop (-1 for none). Ids past them are unroutable.
    """

    __slots__ = ("levels", "parents")

    def __init__(self) -> None:
        self.levels: list[int] = [0]
        self.parents: list[int] = [-1]

    def level(self, node_id: int) -> int:
        """Hop distance of ``node_id`` to the base station (-1 unroutable)."""
        levels = self.levels
        return levels[node_id] if node_id < len(levels) else -1

    def parent(self, node_id: int) -> int:
        """Gradient parent of ``node_id`` (-1 when it has none)."""
        parents = self.parents
        return parents[node_id] if node_id < len(parents) else -1

    def routable(self) -> list[int]:
        """Ids of the sensors with a route to the base station, ascending."""
        return [nid for nid, hops in enumerate(self.levels) if hops > 0]


class Role(enum.Enum):
    """Phase-1 role of a node (transient: heads demote after setup)."""

    UNDECIDED = "undecided"
    HEAD = "head"
    MEMBER = "member"


@dataclass
class Preload:
    """Key material loaded during manufacturing (Sec. IV-A).

    ``node_key`` is ``K_i`` (shared with the base station), ``cluster_key``
    is the candidate ``K_ci = F(K_MC, i)``, ``master_key`` is ``K_m``
    (erased after setup). ``chain_commitment`` is ``K_0`` of the
    revocation chain. New nodes additionally carry ``kmc`` (Sec. IV-E),
    erased after joining.
    """

    node_key: SymmetricKey  # ldplint: disable=KEY002 -- K_i is shared with the BS for the node's lifetime (Sec. IV-A); only K_m/K_MC are erased
    cluster_key: SymmetricKey  # ldplint: disable=KEY002 -- the candidate K_ci becomes the live cluster key on heads; erasure happens via KeyRing.remove on revocation
    master_key: SymmetricKey
    chain_commitment: bytes
    #: Chain position of the commitment (0 for nodes present at rollout;
    #: later-deployed nodes are provisioned at the chain's current index).
    chain_index: int = 0
    kmc: SymmetricKey | None = None


@dataclass
class NodeState:
    """Mutable protocol state of one node."""

    node_id: int
    preload: Preload
    role: Role = Role.UNDECIDED
    #: Cluster id (the head's node id) once decided.
    cid: int | None = None
    #: The set S: own cluster key plus neighboring clusters' keys.
    keyring: KeyRing = field(default_factory=KeyRing)
    #: Verifier state for the revocation chain.
    chain: ChainVerifier | None = None
    #: End-to-end counter towards the base station (Step 1).
    e2e_counter: int = 0
    #: Hop-layer sequence number for frames this node originates/forwards.
    hop_seq: int = 0
    #: Hop-layer anti-replay window per hop sender (see :func:`accept_hop_seq`).
    hop_windows: dict[int, int] = field(default_factory=dict)
    #: Key-refresh epoch this node has applied.
    refresh_epoch: int = 0

    def __post_init__(self) -> None:
        if self.chain is None:
            self.chain = ChainVerifier(
                self.preload.chain_commitment, index=self.preload.chain_index
            )

    @property
    def decided(self) -> bool:
        """Whether phase 1 has assigned this node a role."""
        return self.role is not Role.UNDECIDED

    def next_hop_seq(self) -> int:
        """Allocate a fresh hop-layer sequence number."""
        self.hop_seq += 1
        return self.hop_seq

    def next_e2e_counter(self) -> int:
        """Allocate a fresh end-to-end counter value (never reused)."""
        self.e2e_counter += 1
        return self.e2e_counter

    def accept_hop_seq(self, sender: int, seq: int) -> bool:
        """Anti-replay check of a hop seq from ``sender``.

        Gaps are fine (loss), and so is a frame overtaken or reordered on
        the way, as long as its seq is unseen and inside the window
        (:func:`accept_hop_seq`); repeats are rejected.
        """
        return accept_hop_seq(self.hop_windows, sender, seq)

    def stored_key_count(self) -> int:
        """The Fig. 6 metric: cluster keys this node stores."""
        return len(self.keyring)
