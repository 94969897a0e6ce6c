"""The CLI entry points and the ASCII cluster map."""

import pytest

from repro.cli import build_parser, main
from repro.gateway import deployment_status
from repro.viz import cluster_map
from tests.conftest import small_deployment


def test_cluster_map_renders():
    deployed = small_deployment(n=100, seed=170)
    text = cluster_map(deployed, width=40)
    lines = text.splitlines()
    assert "base station" in lines[0]
    assert all(len(line) == 40 for line in lines[1:])
    assert any("@" in line for line in lines[1:])  # BS is drawn
    # Some cluster glyphs are present.
    body = "".join(lines[1:])
    assert any(c.isalnum() for c in body)


def test_cluster_map_marks_orphans():
    deployed = small_deployment(n=100, seed=171)
    agent = next(iter(deployed.agents.values()))
    agent.state.cid = None
    assert "x" in cluster_map(deployed, width=40)


def test_cluster_map_width_validation():
    deployed = small_deployment(n=50, seed=172)
    with pytest.raises(ValueError):
        cluster_map(deployed, width=4)


def test_parser_requires_command():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


def test_cli_demo(capsys):
    assert main(["demo", "--n", "80", "--density", "10"]) == 0
    out = capsys.readouterr().out
    assert "deployed 80 nodes" in out
    assert "reading-" in out


def test_cli_single_figure(capsys):
    assert main(["figures", "--fig", "8", "--n", "120", "--runs", "1"]) == 0
    assert "Figure 8" in capsys.readouterr().out


def test_cli_unknown_figure(capsys):
    assert main(["figures", "--fig", "42", "--n", "50"]) == 2


def test_cli_inspect(capsys):
    assert main(["inspect", "--n", "80", "--width", "40"]) == 0
    out = capsys.readouterr().out
    assert "base station" in out
    assert "clusters:" in out


def test_cli_experiment_selection(capsys):
    assert main(["experiments", "--which", "leap", "--n", "150"]) == 0
    assert "LEAP" in capsys.readouterr().out


def test_cli_unknown_experiment():
    assert main(["experiments", "--which", "nope", "--n", "50"]) == 2


def _subcommands() -> list[str]:
    return sorted(build_parser()._subparsers._group_actions[0].choices)


@pytest.mark.parametrize("command", _subcommands())
def test_every_subcommand_help_exits_zero(command, capsys):
    with pytest.raises(SystemExit) as excinfo:
        main([command, "--help"])
    assert excinfo.value.code == 0
    assert "usage:" in capsys.readouterr().out


def test_cli_run_live_loopback(capsys):
    assert main(["run-live", "--n", "40", "--transport", "loopback", "--rounds", "1"]) == 0
    out = capsys.readouterr().out
    import json

    snapshot = json.loads(out)
    assert snapshot["transport"] == "loopback"
    assert snapshot["workload"]["delivery_ratio"] >= 0.95
    assert snapshot["clusters_formed"] > 0
    status_keys = list(deployment_status(small_deployment(n=10, seed=0)))
    assert list(snapshot) == [*status_keys, "setup", "workload"]


def test_cli_run_live_rejects_unknown_transport(capsys):
    assert main(["run-live", "--n", "10", "--transport", "telepathy"]) == 2
    out = capsys.readouterr().out
    assert "telepathy" in out
    assert "loopback" in out and "udp" in out
