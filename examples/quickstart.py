#!/usr/bin/env python3
"""Quickstart: deploy a secure sensor network and collect readings.

Deploys 400 sensors at density 10, runs the paper's key-setup phase
(clusterhead election + cluster-key dissemination), then has a handful of
sensors report encrypted readings that travel hop-by-hop to the base
station.

Run:  python examples/quickstart.py
"""

from repro import SecureSensorNetwork

def main() -> None:
    # Deploy and run the cluster key setup (Sec. IV-A/IV-B of the paper).
    ssn = SecureSensorNetwork.deploy(n=400, density=10.0, seed=42)

    m = ssn.setup_metrics
    print("key setup complete")
    print(f"  nodes:               {m.n}")
    print(f"  measured density:    {m.measured_density:.1f} neighbors/node")
    print(f"  clusters formed:     {m.cluster_count}  (head fraction {m.head_fraction:.2f})")
    print(f"  avg cluster size:    {m.mean_cluster_size:.2f} nodes")
    print(f"  avg keys per node:   {m.mean_keys_per_node:.2f}  (max {m.max_keys_per_node})")
    print(f"  setup msgs per node: {m.messages_per_node:.2f}")

    # Pick a few sources spread across the field and report readings.
    # Each send is ONE broadcast; Step 1 encrypts end-to-end under K_i,
    # Step 2 re-wraps hop-by-hop under cluster keys.
    sources = ssn.node_ids()[:: len(ssn.node_ids()) // 5][:5]
    for i, src in enumerate(sources):
        ssn.send_reading(src, f"temp={20 + i}.5C".encode())
    ssn.run(30.0)

    print("\nbase station received:")
    gradient = ssn.deployed.gradient
    for reading in ssn.readings():
        hops = gradient.level(reading.source)
        print(
            f"  t={reading.time:7.3f}s  node {reading.source:4d} "
            f"({hops} hops away): {reading.data.decode()}"
        )

    delivered = {r.source for r in ssn.readings()}
    routable = set(sources).intersection(gradient.routable())
    assert routable <= delivered, "some routable readings were lost"
    print(f"\ndelivered {len(delivered)}/{len(sources)} readings, all authenticated")

if __name__ == "__main__":
    main()
