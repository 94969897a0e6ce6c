"""Section III — the HELLO-flood weakness of LEAP, demonstrated.

"An attacker may force a sensor node to compute pairwise keys with other
(or all) nodes in the network ... once the neighbor discovery phase
terminates, an attacker can compromise a sensor node and have in her
possession a key that is shared between the compromised node and all
other nodes in the network."

The experiment floods one LEAP victim with forged HELLOs for every
network identity, captures it, and counts the identities the adversary
can now impersonate — versus this paper's protocol, where a HELLO flood
buys nothing (HELLOs after role decision are rejected, and joining a
cluster stores *one* key, not one per claimed neighbor).
"""

from __future__ import annotations

from repro.baselines import node_ids
from repro.experiments.common import ExperimentTable
from repro.leap import LeapDeployment, run_leap_bootstrap
from repro.leap.setup import capture_leap_node
from repro.protocol.setup import deploy

PAPER_FIGURE = "Section III (LEAP HELLO-flood weakness)"


def _impersonable(deployment: LeapDeployment, victim: int) -> int:
    """Identities whose pairwise key with ``victim`` a capture yields."""
    return len(capture_leap_node(deployment, victim)["pairwise"])


def _flood(
    n: int, density: float, seed: int, forged: range | None
) -> tuple[LeapDeployment, LeapDeployment, int]:
    """A clean live LEAP bootstrap, the same field with its middle node
    flooded by one HELLO per id in ``forged`` (all real ids when None),
    and that victim's node id."""
    clean = run_leap_bootstrap(n, density, seed=seed)
    ids = node_ids(clean.deployment)
    victim = ids[n // 2]
    flooded = run_leap_bootstrap(
        n, density, seed=seed, flood_victim=victim, flood_ids=ids if forged is None else forged
    )
    return clean, flooded, victim


def run(n: int = 400, density: float = 12.5, seed: int = 0) -> ExperimentTable:
    """Storage blow-up and impersonation reach of the LEAP attack.

    Every LEAP row runs :mod:`repro.leap` end to end: a real discovery
    window and a real flooding transmitter next to the victim. The main
    rows forge every real identity; the last forges ids outside the
    network, on a smaller field.
    """
    clean, flooded, victim = _flood(n, density, seed, None)
    keys_before = clean.keys_stored(victim)

    small_n = min(n, 150)
    small_clean, small_flooded, small_victim = _flood(
        small_n, density, seed, range(10_000, 10_000 + small_n)
    )

    # Same flood against this paper's protocol: measured on a live network.
    deployed, _ = deploy(n, density, seed=seed)
    ldp_keys = deployed.agents[victim].state.stored_key_count()

    table = ExperimentTable(
        title=f"{PAPER_FIGURE}: flood one victim with n={n} forged HELLOs",
        headers=["scheme", "keys before", "keys after flood", "ids impersonable after capture"],
    )
    table.add_row(
        "leap", keys_before, flooded.keys_stored(victim), _impersonable(flooded, victim)
    )
    table.add_row("leap (no flood)", keys_before, keys_before, _impersonable(clean, victim))
    table.add_row(
        f"leap (forged ids, n={small_n})",
        small_clean.keys_stored(small_victim),
        small_flooded.keys_stored(small_victim),
        _impersonable(small_flooded, small_victim),
    )
    table.add_row("this-paper", ldp_keys, ldp_keys, 0)
    table.notes.append(
        "paper claim: LEAP victim ends up sharing keys with all nodes; "
        "this paper's nodes accept exactly one cluster assignment"
    )
    table.notes.append(
        "impersonable ids = the captured victim's pairwise keys; every row "
        "runs repro.leap end to end with a real flooding node"
    )
    return table


def main() -> None:  # pragma: no cover - CLI convenience
    print(run().render())


if __name__ == "__main__":  # pragma: no cover
    main()
