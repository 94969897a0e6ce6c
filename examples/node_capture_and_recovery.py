#!/usr/bin/env python3
"""Full security lifecycle: capture -> clone -> eviction -> replacement.

Walks the paper's threat story end to end on a live network:

1. an adversary physically captures a node after setup (no ``K_m`` — the
   setup window has long closed) and extracts its cluster keys;
2. she plants a clone far away: useless, the stolen keys are localized;
3. she plants a clone next to the victim: injections are accepted — this
   is the window the paper's eviction mechanism closes;
4. the (abstracted) detection mechanism reports the compromise; the base
   station revokes the exposed clusters with a key-chain-authenticated
   command (Sec. IV-D) and the clone goes dark;
5. a replacement node is deployed, joins via ``K_MC`` (Sec. IV-E), and
   reporting resumes from that part of the field.

Run:  python examples/node_capture_and_recovery.py
"""

import numpy as np

from repro import SecureSensorNetwork
from repro.attacks import Adversary, insert_clone

def main() -> None:
    ssn = SecureSensorNetwork.deploy(n=300, density=10.0, seed=13)
    trace = ssn.network.trace
    positions = ssn.network.deployment.positions

    victim = ssn.node_ids()[20]
    print(f"victim: node {victim}, cluster {ssn.agent(victim).state.cid}")

    # 1. capture
    adversary = Adversary(ssn.deployed)
    loot = adversary.capture(victim)
    print(
        f"captured: {len(loot.cluster_keys)} cluster keys "
        f"{sorted(loot.cluster_keys)}, master key extracted: {loot.got_master_key}"
    )

    # 2. clone far away
    far = positions[int(np.argmax(np.linalg.norm(positions - positions[victim - 1], axis=1)))]
    far_clone = insert_clone(ssn.deployed, loot, far)
    before = len(ssn.readings())
    far_clone.inject_reading(b"forged-far-away")
    ssn.run(20.0)
    print(f"far clone:  {len(ssn.readings()) - before} forged readings accepted "
          f"(keys are localized — Sec. II)")

    # 3. clone in place
    near_clone = insert_clone(ssn.deployed, loot, positions[victim - 1] + 0.5)
    before = len(ssn.readings())
    near_clone.inject_reading(b"forged-in-place")
    ssn.run(20.0)
    accepted = len(ssn.readings()) - before
    print(f"near clone: {accepted} forged readings accepted (pre-eviction window)")

    # 4. eviction
    revoked = ssn.revoke_node(victim)
    print(f"base station revoked clusters {revoked}; "
          f"{trace['revoke.key_deleted']} keys deleted network-wide")
    before = len(ssn.readings())
    near_clone.inject_reading(b"forged-after-eviction")
    ssn.run(20.0)
    print(f"near clone after eviction: {len(ssn.readings()) - before} accepted")

    # 5. replacement node joins via K_MC. Deploying straight into the
    # revocation hole would find no live cluster to answer the join, so the
    # operator drops the new node at the edge of the hole, next to a healthy
    # cluster that still routes to the base station.
    healthy = next(
        nid
        for nid in ssn.deployed.gradient.routable()
        if ssn.agent(nid).state.cid not in (*revoked, None)
        and ssn.agent(nid).state.keyring.has(ssn.agent(nid).state.cid)
    )
    replacement = ssn.add_node(positions[healthy - 1] + np.array([1.0, 0.0]))
    rid = replacement.state.node_id
    print(
        f"replacement node {rid} joined cluster {replacement.state.cid} "
        f"holding {replacement.state.stored_key_count()} keys (K_MC erased: "
        f"{replacement.state.preload.kmc.erased})"
    )
    before = len(ssn.readings())
    ssn.send_reading(rid, b"field-restored")
    ssn.run(20.0)
    print(f"replacement reading delivered: {len(ssn.readings()) - before == 1}")

if __name__ == "__main__":
    main()
