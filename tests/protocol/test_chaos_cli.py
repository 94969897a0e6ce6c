"""The ``repro chaos`` command: scenario parsing, the delivery gate."""

import json

from repro.cli import build_parser, main
from repro.runtime.chaos import ChaosScenario, parse_crash, parse_partition

SMALL = ["--n", "25", "--rounds", "1", "--settle", "8"]


def test_chaos_passes_assert_delivery_with_retransmits(capsys):
    assert main(["chaos", "--seed", "0", *SMALL, "--assert-delivery", "0.9"]) == 0
    out = capsys.readouterr().out
    assert "delivery" in out
    assert "retransmits=on" in out


def test_chaos_gate_fails_without_retransmits(capsys):
    # Heavy loss with the reliability layer off must trip the gate.
    code = main(
        ["chaos", "--seed", "0", *SMALL, "--drop", "0.4",
         "--no-retransmits", "--assert-delivery", "0.99"]
    )
    assert code == 1
    assert "FAIL" in capsys.readouterr().out


def test_chaos_json_output(capsys):
    assert main(["chaos", "--seed", "1", *SMALL, "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["n"] == 25
    assert 0.0 <= payload["delivery_ratio"] <= 1.0
    assert "fault.drop" in payload["fault_counters"]
    assert "net.retx.sent" in payload["reliability_counters"]
    assert "net.retx.overheard" in payload["reliability_counters"]


def test_chaos_defaults_are_the_scenario_defaults():
    # CI gates on the bare command: it must run ChaosScenario's defaults.
    args = vars(build_parser().parse_args(["chaos"]))
    args["retransmits"] = not args.pop("no_retransmits")
    fields = {
        "delay_jitter": "delay_jitter_s",
        "crash": "crashes",
        "partition": "partitions",
        "period": "period_s",
        "settle": "settle_s",
    }
    default = ChaosScenario()
    checked = set()
    for name, value in args.items():
        field = fields.get(name, name)
        if hasattr(default, field):
            expected = getattr(default, field)
            assert (tuple(value) if isinstance(value, list) else value) == expected, name
            checked.add(field)
    assert {"n", "density", "drop", "retransmits", "crashes"} <= checked


def test_chaos_rejects_bad_specs(capsys):
    assert main(["chaos", "--crash", "nope"]) == 2
    assert main(["chaos", "--partition", "1,2"]) == 2
    assert main(["chaos", "--drop", "1.5"]) == 2
    assert main(["chaos", "--transport", "tcp"]) == 2


def test_crash_spec_parsing():
    event = parse_crash("7@20:35")
    assert (event.node_id, event.at_s, event.restart_at_s) == (7, 20.0, 35.0)
    assert parse_crash("7@20").restart_at_s is None


def test_partition_spec_parsing():
    part = parse_partition("3,9,12@15:40")
    assert part.nodes == frozenset({3, 9, 12})
    assert (part.start_s, part.end_s) == (15.0, 40.0)
