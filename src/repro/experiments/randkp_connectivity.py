"""Random-key-predistribution connectivity, measured live (Sec. III context).

The paper's storage argument against random predistribution: "As the size
of the sensor network increases, the number of symmetric keys needed to
be stored in sensor nodes must also be increased in order to provide
sufficient security of links." This experiment runs the *live* E-G
bootstrap (:mod:`repro.randkp`) across ring sizes and reports:

* direct (shared-key) link fraction vs E-G's closed-form prediction;
* the lift from path-key establishment;
* keys stored per node — the cost that grows with required connectivity,
  vs this paper's flat ~3–4.5 keys.
"""

from __future__ import annotations

from typing import Sequence

from repro.baselines import link_fraction
from repro.experiments.common import ExperimentTable
from repro.protocol.setup import deploy
from repro.randkp import expected_share_probability, run_randkp_bootstrap

PAPER_FIGURE = "Sec. III context: E-G connectivity vs ring size (live)"


def run(
    ring_sizes: Sequence[int] = (15, 25, 40, 60),
    n: int = 200,
    density: float = 12.0,
    seed: int = 1,
    pool_size: int = 1000,
) -> ExperimentTable:
    """Live E-G bootstrap across ring sizes, with this paper as the anchor."""
    table = ExperimentTable(
        title=f"{PAPER_FIGURE} (n={n}, pool {pool_size})",
        headers=[
            "scheme / ring",
            "direct secured",
            "theory",
            "after path keys",
            "keys/node",
            "bootstrap msgs/node",
        ],
    )
    for m in ring_sizes:
        dep = run_randkp_bootstrap(
            n, density, seed=seed, pool_size=pool_size, ring_size=m
        )
        trace = dep.network.trace
        msgs = (
            trace["eg.tx.announce"] + trace["eg.tx.path_req"] + trace["eg.tx.path_grant"]
        ) / len(dep.agents)
        table.add_row(
            f"E-G m={m}",
            link_fraction(dep.deployment, dep.shared_key_link),
            expected_share_probability(pool_size, m),
            dep.secured_link_fraction(),
            sum(dep.keys_per_node()) / len(dep.agents),
            msgs,
        )
    deployed, metrics = deploy(n, density, seed=seed)
    table.add_row(
        "this-paper",
        1.0,
        float("nan"),
        1.0,
        metrics.mean_keys_per_node,
        metrics.messages_per_node,
    )
    table.notes.append(
        "paper shape: E-G buys connectivity with ring size (storage); this "
        "paper secures every link with a handful of keys and ~1.2 msgs/node"
    )
    return table


def main() -> None:  # pragma: no cover - CLI convenience
    print(run().render())


if __name__ == "__main__":  # pragma: no cover
    main()
