"""In-network data fusion (Sec. II)."""

import pytest

from repro.protocol.aggregation import (
    DuplicateEventFilter,
    ThresholdFilter,
    decode_reading,
    encode_reading,
)
from repro.protocol.config import ProtocolConfig
from tests.conftest import run_for, small_deployment


def test_reading_codec_roundtrip():
    payload = encode_reading(7, 21.5, origin=42)
    assert decode_reading(payload) == (7, 21.5, 42)


def test_reading_codec_rejects_garbage():
    with pytest.raises(ValueError):
        decode_reading(b"short")


class TestDuplicateEventFilter:
    def test_first_report_passes_rest_discarded(self):
        f = DuplicateEventFilter()
        r = encode_reading(1, 2.0)
        assert not f.should_discard(r)
        assert f.should_discard(encode_reading(1, 3.0))  # same event, any value
        assert not f.should_discard(encode_reading(2, 2.0))
        assert f.discarded == 1

    def test_non_readings_pass_through(self):
        f = DuplicateEventFilter()
        assert not f.should_discard(b"opaque-bytes")
        assert not f.should_discard(b"opaque-bytes")

    def test_bounded_memory(self):
        f = DuplicateEventFilter(capacity=2)
        for event in range(5):
            f.should_discard(encode_reading(event, 0.0))
        # Event 0 evicted: would pass again.
        assert not f.should_discard(encode_reading(0, 0.0))

    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            DuplicateEventFilter(capacity=0)


class TestThresholdFilter:
    def test_below_threshold_discarded(self):
        f = ThresholdFilter(threshold=1.0)
        assert f.should_discard(encode_reading(1, 0.5))
        assert f.should_discard(encode_reading(2, -0.5))
        assert not f.should_discard(encode_reading(3, 1.5))
        assert f.discarded == 2

    def test_non_readings_pass(self):
        assert not ThresholdFilter(1.0).should_discard(b"x")


def test_fusion_suppresses_duplicates_in_network():
    deployed = small_deployment(
        n=200, density=12.0, seed=55, config=ProtocolConfig(end_to_end_encryption=False)
    )
    for agent in deployed.agents.values():
        agent.fusion = DuplicateEventFilter()
    trace = deployed.network.trace
    reporters = deployed.gradient.routable()[:6]
    for origin in reporters:
        deployed.agents[origin].send_reading(encode_reading(1, 20.0, origin))
    run_for(deployed, 60)
    assert trace["drop.data_fused"] > 0
    # The event still reaches the base station at least once.
    events = {decode_reading(r.data)[0] for r in deployed.bs_agent.delivered}
    assert events == {1}


def test_fusion_saves_transmissions():
    def campaign(fused):
        deployed = small_deployment(
            n=200, density=12.0, seed=56,
            config=ProtocolConfig(end_to_end_encryption=False),
        )
        if fused:
            for agent in deployed.agents.values():
                agent.fusion = DuplicateEventFilter()
        reporters = deployed.gradient.routable()[:8]
        for origin in reporters:
            deployed.agents[origin].send_reading(encode_reading(1, 20.0, origin))
        run_for(deployed, 60)
        return deployed.network.trace["tx.data"]

    assert campaign(fused=True) < campaign(fused=False)


def test_fusion_cannot_inspect_encrypted_readings():
    # With Step 1 on, the filter never sees a parseable reading, so it
    # discards nothing and delivery is unaffected.
    deployed = small_deployment(n=150, density=12.0, seed=57)
    f = DuplicateEventFilter()
    for agent in deployed.agents.values():
        agent.fusion = f
    reporters = deployed.gradient.routable()[:4]
    for origin in reporters:
        deployed.agents[origin].send_reading(encode_reading(1, 20.0, origin))
    run_for(deployed, 60)
    assert deployed.network.trace["drop.data_fused"] == 0
    assert len({r.source for r in deployed.bs_agent.delivered}) == len(reporters)
