"""Addition of new nodes (Sec. IV-E).

A freshly deployed node carries the cluster master key ``K_MC``. It
broadcasts a hello with its id; existing nodes respond with
``CID, MAC_Kc(CID | new_id)`` (binding the response to the requester
defeats the impersonation attack the paper describes). The new node
derives each candidate cluster key locally as ``K_ci = F(K_MC, CID)``,
verifies the MACs, adopts the first verified cluster as its own, stores
the rest as neighboring clusters, and erases ``K_MC``.

Clusters whose keys were replaced by *recluster* refresh (fresh random
keys) are no longer derivable from ``K_MC``; their responses fail
verification and are skipped — the same limitation the paper's
construction has. Hash-refresh epochs, by contrast, are derivable and are
replayed onto the derived key (the deployer provisions the new node with
the current epoch count alongside ``K_MC``).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.crypto.kdf import derive_cluster_key, refresh_key
from repro.crypto.keys import SymmetricKey
from repro.crypto.mac import verify
from repro.protocol import messages
from repro.protocol.agent import ProtocolAgent
from repro.protocol.config import JOIN_WINDOW_S, ProtocolConfig
from repro.protocol.state import Gradient, Preload, Role

if TYPE_CHECKING:  # pragma: no cover
    import numpy as np

    from repro.protocol.setup import DeployedProtocol
    from repro.runtime.node import NodeRuntime


class JoiningNodeAgent:
    """Transient application driving the join handshake on a new node.

    After the join window closes, :attr:`result` holds the operational
    :class:`ProtocolAgent` (already attached to the node), or ``None`` if
    no cluster response verified (isolated or adversarial surroundings).
    """

    def __init__(
        self,
        node: "NodeRuntime",
        config: ProtocolConfig,
        preload: Preload,
        timer_rng,
        gradient: Gradient,
        hash_epoch: int = 0,
    ) -> None:
        if preload.kmc is None:
            raise ValueError("a joining node must be provisioned with K_MC")
        self.node = node
        self.config = config
        self.preload = preload
        self._rng = timer_rng
        self._gradient = gradient
        self._hash_epoch = hash_epoch
        self._trace = node.trace
        #: Candidate (cid, tag) pairs in arrival order, first-response-first.
        self._candidates: list[tuple[int, bytes]] = []
        self._seen_cids: set[int] = set()
        self.result: ProtocolAgent | None = None
        self.completed = False

    def start(self) -> None:
        """Broadcast the join hello and arm the collection window."""
        self._trace.count("tx.join_req")
        self.node.broadcast(messages.encode_join_req(self.node.id))
        self.node.schedule(JOIN_WINDOW_S, self._complete)

    def on_frame(self, sender_id: int, frame: bytes) -> None:
        """Collect JOIN_RESP frames; everything else is ignored."""
        if not frame or frame[0] != messages.JOIN_RESP or self.completed:
            return
        try:
            cid, tag = messages.decode_join_resp(frame, self.config.tag_len)
        except messages.MalformedMessage:
            return
        if cid not in self._seen_cids:
            self._seen_cids.add(cid)
            self._candidates.append((cid, tag))

    def _derived_key(self, cid: int) -> bytes:
        key = derive_cluster_key(self.preload.kmc.material, cid)
        for _ in range(self._hash_epoch):
            key = refresh_key(key)
        return key

    def _complete(self) -> None:
        """Verify candidates, build the operational agent, erase K_MC."""
        self.completed = True
        verified: list[tuple[int, bytes]] = []
        for cid, tag in self._candidates:
            key = self._derived_key(cid)
            if verify(key, messages.join_resp_mac_input(cid, self.node.id), tag):
                verified.append((cid, key))
            else:
                self._trace.count("join.bad_response")
        self.preload.kmc.erase()
        if not verified:
            self._trace.count("join.failed")
            return

        agent = ProtocolAgent(self.node, self.config, self.preload, self._rng, self._gradient)
        st = agent.state
        own_cid, _ = verified[0]  # "member of the first such cluster"
        st.role = Role.MEMBER
        st.cid = own_cid
        for cid, key in verified:
            st.keyring.store(cid, SymmetricKey(key, label=f"Kc[{cid}]"))
        st.preload.master_key.erase()  # joined nodes never use K_m
        agent.operational = True
        self.node.app = agent
        self.result = agent
        self._trace.count("join.completed")


def deploy_new_node(
    deployed: "DeployedProtocol",
    position: "np.ndarray",
    hash_epoch: int = 0,
) -> JoiningNodeAgent:
    """Provision and start one replacement node at ``position``.

    Manufactures fresh ``K_i`` (registered with the base station), a copy
    of ``K_MC`` and the *current* chain commitment, then starts the join
    handshake. Run the simulator past ``JOIN_WINDOW_S`` and read
    :attr:`JoiningNodeAgent.result`; on success, call
    ``deployed.assign_gradient()`` and register the agent via
    :func:`finalize_join`.
    """
    network = deployed.network
    key_rng = network.rng.stream("keys")
    node = network.add_node(position)

    ki = SymmetricKey.generate(key_rng, label=f"K[{node.id}]")
    deployed.registry.node_keys[node.id] = SymmetricKey(ki.material, label=f"K[{node.id}]")
    bs_chain = deployed.registry.chain
    revealed = bs_chain.length - bs_chain.remaining
    preload = Preload(
        node_key=ki,
        cluster_key=SymmetricKey(
            derive_cluster_key(deployed.registry.kmc.material, node.id),
            label=f"Kc[{node.id}]",
        ),
        master_key=SymmetricKey(bytes(16), label="K_m(unused)"),
        chain_commitment=bs_chain.key_at(revealed),
        chain_index=revealed,
        kmc=SymmetricKey(deployed.registry.kmc.material, label="K_MC"),
    )
    timer_rng = network.rng.stream("timers")
    joiner = JoiningNodeAgent(
        node, deployed.config, preload, timer_rng, deployed.gradient, hash_epoch
    )
    node.app = joiner
    joiner.start()
    return joiner


def finalize_join(deployed: "DeployedProtocol", joiner: JoiningNodeAgent) -> ProtocolAgent:
    """Register a completed join with the deployment and fix the gradient.

    Raises:
        RuntimeError: if the join did not complete successfully.
    """
    if joiner.result is None:
        raise RuntimeError("join handshake did not complete")
    deployed.agents[joiner.node.id] = joiner.result
    deployed.assign_gradient()
    return joiner.result
