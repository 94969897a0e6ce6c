"""Shape checks for every reproduced figure (small-n, fast versions).

These tests assert the *qualitative* shapes the paper reports — who wins,
which direction curves move — on reduced deployments. The full-scale
numbers live in the benchmark harness.
"""

import pytest

from repro.experiments import (
    ablations,
    broadcast_cost,
    fig1_cluster_distribution,
    fig7_cluster_size,
    fig8_clusterhead_fraction,
    leap_weakness,
    resilience,
    scale_invariance,
)
from repro.experiments.common import setup_sweep

DENSITIES = (8.0, 14.0, 20.0)
N = 300
SEEDS = range(2)


@pytest.fixture(scope="module")
def sweep():
    return setup_sweep(DENSITIES, N, SEEDS)


def _means(sweep, metric):
    return [
        sum(metric(m) for m in sweep[d]) / len(sweep[d]) for d in DENSITIES
    ]


def test_fig1_singletons_shrink_with_density():
    table = fig1_cluster_distribution.run(densities=(8.0, 20.0), n=N, seeds=SEEDS)
    share = table.rows[-1]  # fraction of nodes in size-1 clusters
    assert share[0] == "size-1 node share"
    assert float(share[2]) < float(share[1])  # density 20 < density 8


def test_fig6_keys_grow_slowly_with_density(sweep):
    keys = _means(sweep, lambda m: m.mean_keys_per_node)
    assert keys[0] < keys[-1]  # grows...
    assert keys[-1] < 7  # ...but stays small (paper: ~4.5 at density 20)
    # Sub-linear: density x2.5 must not give keys x2.5.
    assert keys[-1] / keys[0] < 20.0 / 8.0


def test_fig7_cluster_size_grows_with_density(sweep):
    sizes = _means(sweep, lambda m: m.mean_cluster_size)
    assert sizes[0] < sizes[1] < sizes[-1]
    assert 3 < sizes[0] < 7 and 6 < sizes[-1] < 13


def test_fig8_head_fraction_falls_with_density(sweep):
    heads = _means(sweep, lambda m: m.head_fraction)
    assert heads[0] > heads[1] > heads[-1]
    assert 0.15 < heads[0] < 0.3  # paper: ~0.23 at density 8
    assert 0.07 < heads[-1] < 0.16  # paper: ~0.11 at density 20


def test_fig9_messages_slightly_above_one(sweep):
    msgs = _means(sweep, lambda m: m.messages_per_node)
    assert msgs[0] > msgs[-1]
    assert all(1.0 < m < 1.35 for m in msgs)


def test_scale_invariance_table():
    table = scale_invariance.run(sizes=(200, 600), density=12.0, seeds=range(2))
    keys = [float(x) for x in table.column("keys/node")]
    heads = [float(x) for x in table.column("head fraction")]
    # Per-node metrics must be flat in n (within a tolerance).
    assert abs(keys[0] - keys[1]) < 0.5
    assert abs(heads[0] - heads[1]) < 0.05


def test_broadcast_cost_table():
    table = broadcast_cost.run(n=250, density=12.0, seed=0)
    tx = {row[0]: float(row[1]) for row in table.rows}
    assert tx["this-paper"] == 1.0
    assert tx["leap"] == 1.0
    assert tx["full-pairwise"] > 5.0
    assert tx["eschenauer-gligor"] > 3.0


def test_resilience_table():
    table = resilience.run(n=250, density=12.0, seed=0, capture_counts=(1, 10))
    rows = {row[0]: [float(x) for x in row[1:]] for row in table.rows}
    assert rows["global-key"] == [1.0, 1.0]
    # One capture exposes only a local patch; at n=250 that patch is a
    # modest fraction (it shrinks as 1/n — the locality table is the
    # sharper view of the same claim).
    assert rows["this-paper"][0] < 0.3
    # E-G compromise grows with captures.
    eg = rows["eschenauer-gligor"]
    assert eg[0] < eg[1]


def test_locality_table():
    table = resilience.run_locality(n=250, density=12.0, seed=0, max_hops=6)
    rows = {row[0]: [float(x) for x in row[1:]] for row in table.rows}
    ours = rows["this-paper"]
    assert all(f == 0.0 for f in ours[3:])  # nothing beyond 4 hops
    eg = rows["eschenauer-gligor"]
    assert any(f > 0.0 for f in eg[3:])  # E-G leaks at distance


@pytest.fixture(scope="module")
def leap_table():
    return leap_weakness.run(n=200, density=12.0, seed=0)


def test_leap_weakness_table(leap_table):
    rows = {row[0]: row[1:] for row in leap_table.rows}
    assert int(rows["leap"][2]) == 199  # all other ids impersonable
    assert int(rows["this-paper"][2]) == 0


def test_leap_weakness_counts_captured_pairwise_ids(leap_table):
    # The victim of 150 forged HELLOs stores K_v, its own cluster key, one
    # pairwise key and one received cluster key per real neighbor, and one
    # pairwise key per forged id. Only the pairwise keys are identities.
    before, after, impersonable = next(
        [int(x) for x in row[1:]] for row in leap_table.rows if "n=150" in row[0]
    )
    degree = (before - 2) // 2
    assert after == before + 150
    assert impersonable == 150 + degree


def test_timer_ablation_direction():
    table = ablations.run_timer(means=(0.02, 1.0), n=250, density=10.0, seeds=range(2))
    singles = [float(row[1]) for row in table.rows]
    assert singles[1] < singles[0]  # longer timers -> fewer singletons


def test_fusion_ablation_saves_transmissions():
    table = ablations.run_fusion(n=200, density=12.0, seed=0,
                                 n_events=5, reporters_per_event=4)
    tx = {row[0]: int(row[1]) for row in table.rows}
    fused = tx["step1 off + duplicate fusion"]
    plain = tx["step1 off, no fusion"]
    assert fused < plain
    delivered = {row[0]: row[2] for row in table.rows}
    assert all(v.startswith("5/") for v in delivered.values())


def test_table_rendering():
    table = fig8_clusterhead_fraction.run(densities=(10.0,), n=150, seeds=range(1))
    text = table.render()
    assert "Figure 8" in text
    assert "density" in text
    assert "note:" in text
    assert table.column("density") == ["10.000"]


#: sha256 of ``repro figures --n 200 --runs 1`` (Figs 1 and 6–9), recorded
#: before the simulator and the live runtime were merged into one fabric.
#: A fabric change that moves any paper figure changes this digest.
FIGURES_N200_SHA256 = "ef96b7850ce9244a67594f4333bf7951b95fa39f3a1d7293efc12040d3bde035"


def test_rendered_paper_figures_are_pinned(capsys):
    import hashlib

    from repro.cli import main

    assert main(["figures", "--n", "200", "--runs", "1"]) == 0
    rendered = capsys.readouterr().out.encode("utf-8")
    assert hashlib.sha256(rendered).hexdigest() == FIGURES_N200_SHA256
