"""Node-capture resilience: this paper vs the predistribution schemes.

Two complementary views of Sec. II's "Resilience to Node Replication"
claim ("compromised keys in one part of the network do not allow an
adversary to obtain access in some other part of it"):

* the Eschenauer–Gligor *global* metric — fraction of secured links
  between non-captured nodes that the adversary can read — swept over the
  number of captured nodes;
* the *locality profile* — compromised-link fraction bucketed by hop
  distance from a single captured node, which is where the schemes differ
  qualitatively: this paper's exposure collapses to zero beyond a couple
  of hops, random predistribution's is flat across the whole field.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.baselines import GlobalKeyScheme, KeySchemeModel, LdpSchemeModel, node_ids
from repro.experiments.common import ExperimentTable, live_rivals
from repro.protocol.setup import deploy

PAPER_FIGURE = "Secs. II/VI (resilience claims)"


def _schemes(deployed, density: float, seed: int) -> list[KeySchemeModel]:
    deployment = deployed.network.deployment
    return [
        LdpSchemeModel(deployed),
        *live_rivals(deployment.n, density, seed),
        GlobalKeyScheme(deployment),
    ]


def run(
    n: int = 400,
    density: float = 12.5,
    seed: int = 0,
    capture_counts: Sequence[int] = (1, 5, 10, 25, 50),
) -> ExperimentTable:
    """E-G resilience metric vs number of captured nodes, per scheme."""
    deployed, _ = deploy(n, density, seed=seed)
    ids = node_ids(deployed.network.deployment)
    rng = np.random.default_rng(seed)
    capture_order = [ids[i] for i in rng.permutation(len(ids))]
    table = ExperimentTable(
        title=f"{PAPER_FIGURE}: fraction of remote links compromised (n={n})",
        headers=["scheme"] + [f"x={k}" for k in capture_counts],
    )
    for scheme in _schemes(deployed, density, seed):
        row = [scheme.resilience(capture_order[:k]) for k in capture_counts]
        table.add_row(scheme.name, *row)
    table.notes.append(
        "paper shape: global key fails totally at x=1; predistribution grows "
        "with x and spreads network-wide; this paper stays bounded and local"
    )
    return table


def run_locality(
    n: int = 400, density: float = 12.5, seed: int = 0, max_hops: int = 8
) -> ExperimentTable:
    """Compromised-link fraction by distance from one captured node.

    The captured node is drawn from the giant connected component (a
    random uniform deployment occasionally leaves tiny disconnected
    pockets whose locality profile would be trivially empty).
    """
    deployed, _ = deploy(n, density, seed=seed)
    deployment = deployed.network.deployment
    giant = max(deployment.connected_components(), key=len)
    captured = node_ids(deployment)[int(giant[len(giant) // 2])]
    table = ExperimentTable(
        title=f"{PAPER_FIGURE}: compromise locality, one captured node (n={n})",
        headers=["scheme"] + [f"d={d}" for d in range(1, max_hops + 1)],
    )
    for scheme in _schemes(deployed, density, seed):
        profile = scheme.compromise_by_distance(captured)
        table.add_row(
            scheme.name, *(profile.get(d, 0.0) for d in range(1, max_hops + 1))
        )
    table.notes.append(
        "paper shape: this paper ~0 beyond ~3 hops (keys are localized); "
        "random predistribution roughly flat in distance"
    )
    return table


def main() -> None:  # pragma: no cover - CLI convenience
    print(run().render())
    print()
    print(run_locality().render())


if __name__ == "__main__":  # pragma: no cover
    main()
