"""The ``repro churn`` command: scenario parsing, the convergence gate."""

import json

from repro.cli import build_parser, main
from repro.runtime.lifecycle import ChurnScenario

# A scaled-down cousin of the CI acceptance scenario: same shape, a
# quarter of the horizon, so the whole file runs in a few seconds.
SMALL = [
    "--n", "24", "--density", "9", "--duration", "30", "--settle", "8",
    "--joins", "1", "--leaves", "1", "--revokes", "1",
    "--drop", "0.05", "--duplicate", "0", "--reorder", "0",
    "--refresh-period", "12", "--period", "4", "--window", "10",
]


def test_churn_converges_and_gates_green(capsys):
    assert main(["churn", "--seed", "3", *SMALL, "--assert-convergence"]) == 0
    out = capsys.readouterr().out
    assert "converged: yes" in out
    assert "reliability=on" in out and "refresh=on" in out


def test_churn_gate_fails_when_degraded(capsys):
    # Reliability and refresh off under heavy loss must trip the gate —
    # the same degradation contract the churn-smoke CI job pins.
    code = main(
        ["churn", "--seed", "3", *SMALL, "--drop", "0.4",
         "--no-reliability", "--no-refresh", "--assert-convergence"]
    )
    assert code == 1
    assert "FAIL" in capsys.readouterr().out


def test_churn_json_output(capsys):
    assert main(["churn", "--seed", "3", *SMALL, "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["n"] == 24
    assert payload["mobility"] == "waypoint"
    assert payload["churn_events"] == 3
    assert 0.0 <= payload["delivery_ratio"] <= 1.0
    assert payload["unroutable"] >= 0
    assert payload["joins_completed"] + payload["joins_failed"] == 1
    assert payload["mobility_steps"] > 0
    assert isinstance(payload["converged"], bool)
    assert payload["store_evicted"] >= payload["leaves"]


def test_churn_defaults_are_the_scenario_defaults():
    # CI gates on the bare command: it must run ChurnScenario's defaults.
    args = vars(build_parser().parse_args(["churn"]))
    fields = {
        "duration": "duration_s",
        "refresh_period": "refresh_period_s",
        "period": "report_period_s",
        "window": "window_s",
        "settle": "settle_s",
        "max_reconverge": "max_reconverge_s",
        "max_orphan_dwell": "max_orphan_dwell_s",
    }
    default = ChurnScenario()
    for name, value in args.items():
        field = fields.get(name, name)
        if hasattr(default, field):
            assert value == getattr(default, field), name


def test_churn_rejects_bad_scenarios(capsys):
    assert main(["churn", "--mobility", "teleport"]) == 2
    assert main(["churn", "--transport", "tcp"]) == 2
    assert main(["churn", "--drop", "1.5"]) == 2
    assert main(["churn", "--duration", "0"]) == 2
