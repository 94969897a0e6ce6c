"""Protocol metrics: the quantities Section V plots.

Everything Figures 1 and 6–9 report is a function of post-setup agent
state and the message counters collected during setup:

* Fig. 1 — distribution of cluster sizes;
* Fig. 6 — average cluster keys stored per node;
* Fig. 7 — average nodes per cluster;
* Fig. 8 — clusterheads / network size;
* Fig. 9 — setup messages sent per node.

:func:`validate_clusters` additionally checks the structural invariants
the paper argues for (disjoint cover, members one hop from their head,
head's key shared cluster-wide) — used by the property-based tests.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.util.stats import Histogram, histogram

if TYPE_CHECKING:  # pragma: no cover
    from repro.protocol.setup import DeployedProtocol
    from repro.telemetry import MetricsRegistry


@dataclass
class SetupMetrics:
    """Aggregate measurements of one key-setup run."""

    n: int
    measured_density: float
    clusters: dict[int, list[int]]
    keys_per_node: list[int]
    hello_messages: int
    linkinfo_messages: int

    cluster_size_hist: Histogram = field(init=False)

    def __post_init__(self) -> None:
        self.cluster_size_hist = histogram(len(m) for m in self.clusters.values())

    @property
    def cluster_count(self) -> int:
        """Number of clusters formed (= number of HELLO broadcasts)."""
        return len(self.clusters)

    @property
    def head_fraction(self) -> float:
        """Fig. 8: clusterheads over network size."""
        return self.cluster_count / self.n if self.n else 0.0

    @property
    def mean_cluster_size(self) -> float:
        """Fig. 7: average nodes per cluster."""
        if not self.clusters:
            return 0.0
        return self.n / self.cluster_count

    @property
    def mean_keys_per_node(self) -> float:
        """Fig. 6: average cluster keys stored per node."""
        if not self.keys_per_node:
            return 0.0
        return sum(self.keys_per_node) / len(self.keys_per_node)

    @property
    def max_keys_per_node(self) -> int:
        """Worst-case storage across nodes."""
        return max(self.keys_per_node, default=0)

    @property
    def messages_per_node(self) -> float:
        """Fig. 9: setup messages transmitted per node (both phases)."""
        if not self.n:
            return 0.0
        return (self.hello_messages + self.linkinfo_messages) / self.n

    @property
    def singleton_fraction(self) -> float:
        """Fraction of clusters with a single node (discussed under Fig. 1)."""
        if not self.clusters:
            return 0.0
        singles = sum(1 for m in self.clusters.values() if len(m) == 1)
        return singles / self.cluster_count

    def cluster_size_fractions(self) -> dict[int, float]:
        """Fig. 1: fraction of clusters at each size."""
        return self.cluster_size_hist.fractions()

    def publish(self, registry: "MetricsRegistry") -> None:
        """Publish these measurements into a metrics registry.

        Writes the ``setup.*`` gauges and the ``setup.cluster_size``
        histogram documented in ``docs/TELEMETRY.md``, so live runs can
        export figure-equivalent numbers over JSONL. Idempotent per run:
        gauges overwrite and the histogram is replaced, not accumulated.
        """
        registry.gauge("setup.nodes", self.n)
        registry.gauge("setup.measured_density", self.measured_density)
        registry.gauge("setup.clusters", self.cluster_count)
        registry.gauge("setup.mean_cluster_size", self.mean_cluster_size)
        registry.gauge("setup.head_fraction", self.head_fraction)
        registry.gauge("setup.mean_keys_per_node", self.mean_keys_per_node)
        registry.gauge("setup.max_keys_per_node", self.max_keys_per_node)
        registry.gauge("setup.messages_per_node", self.messages_per_node)
        registry.gauge("setup.singleton_fraction", self.singleton_fraction)
        registry.histograms["setup.cluster_size"] = histogram(
            len(m) for m in self.clusters.values()
        )
        registry.histograms["setup.keys_per_node"] = histogram(self.keys_per_node)


def cluster_assignment(deployed: "DeployedProtocol") -> dict[int, list[int]]:
    """Map cluster id -> sorted member node ids, from live agent state."""
    clusters: dict[int, list[int]] = {}
    for nid, agent in deployed.agents.items():
        cid = agent.state.cid
        if cid is not None:
            clusters.setdefault(cid, []).append(nid)
    return {cid: sorted(members) for cid, members in clusters.items()}


def compute_setup_metrics(deployed: "DeployedProtocol") -> SetupMetrics:
    """Collect :class:`SetupMetrics` after :func:`run_key_setup`.

    Also publishes the measurements into the deployment's telemetry
    registry (``setup.*`` gauges/histograms), keeping the post-hoc and
    streamed views of a run consistent by construction.
    """
    trace = deployed.network.trace
    metrics = SetupMetrics(
        n=len(deployed.agents),
        measured_density=deployed.network.deployment.mean_degree,
        clusters=cluster_assignment(deployed),
        keys_per_node=[a.state.stored_key_count() for a in deployed.agents.values()],
        hello_messages=trace["tx.hello"],
        linkinfo_messages=trace["tx.linkinfo"],
    )
    metrics.publish(trace.registry)
    return metrics


def validate_clusters(deployed: "DeployedProtocol") -> list[str]:
    """Check the structural invariants of the cluster key setup.

    Returns a list of violation descriptions (empty = all invariants hold):

    1. every node is decided and assigned to exactly one cluster;
    2. every cluster id is the id of a node that declared itself head;
    3. every member is within one hop of its cluster head (hence cluster
       diameter <= 2 hops, Sec. IV-B);
    4. all members of a cluster hold the same cluster key, equal to the
       head's candidate key;
    5. every node holds its own cluster's key in its key ring.
    """
    problems: list[str] = []
    network = deployed.network
    clusters = cluster_assignment(deployed)

    assigned = [nid for members in clusters.values() for nid in members]
    if len(assigned) != len(deployed.agents):
        missing = set(deployed.agents) - set(assigned)
        problems.append(f"nodes without a cluster: {sorted(missing)[:10]}")

    for cid, members in clusters.items():
        if cid not in deployed.agents:
            problems.append(f"cluster id {cid} is not a node id")
            continue
        head_agent = deployed.agents[cid]
        if head_agent.state.cid != cid:
            problems.append(f"head {cid} is not in its own cluster")
        head_key = head_agent.state.preload.cluster_key
        neighbor_set = set(network.adjacency(cid))
        for nid in members:
            agent = deployed.agents[nid]
            if not agent.state.keyring.has(cid):
                problems.append(f"node {nid} lacks its own cluster key ({cid})")
                continue
            if agent.state.keyring.get(cid) != head_key:
                problems.append(f"node {nid} holds a wrong key for cluster {cid}")
            if nid != cid and nid not in neighbor_set:
                problems.append(f"member {nid} is not a radio neighbor of head {cid}")
    return problems
