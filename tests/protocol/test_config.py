"""ProtocolConfig validation."""

from dataclasses import replace

import pytest

from repro.crypto.aead import AeadConfig
from repro.protocol import agent
from repro.protocol.config import ProtocolConfig
from repro.protocol.setup import deploy


def test_defaults_valid():
    config = ProtocolConfig()
    assert config.aead == AeadConfig(cipher="speck64/128", tag_len=8)
    assert config.setup_end_s == 5.0 + 1.0 + 1.0


def test_retransmit_schedule_constants_are_valid():
    # Fixed in the agent module; no deployment tunes them.
    assert agent.RETX_BACKOFF_FACTOR >= 1 and agent.RETX_BACKOFF_MAX_S > 0
    assert agent.RETX_JITTER_S >= 0 and agent.RETX_QUEUE_LIMIT >= 1
    assert agent.MAX_RETRANSMITS >= 0


@pytest.mark.parametrize(
    "kwargs",
    [
        {"mean_hello_delay_s": 0},
        {"setup_reannounce_count": -1},
        {"refresh_strategy": "bogus"},
        {"freshness_window_s": -1},
    ],
)
def test_invalid_values_rejected(kwargs):
    with pytest.raises(ValueError):
        ProtocolConfig(**kwargs)


def test_cluster_phase_must_cover_election_timers():
    with pytest.raises(ValueError, match="at least 4x"):
        ProtocolConfig(mean_hello_delay_s=2.0, cluster_phase_duration_s=5.0)


def test_frozen():
    config = ProtocolConfig()
    with pytest.raises(AttributeError):
        config.tag_len = 4


def test_refresh_strategies():
    assert ProtocolConfig(refresh_strategy="rehash").refresh_strategy == "rehash"
    assert ProtocolConfig(refresh_strategy="recluster").refresh_strategy == "recluster"


@pytest.mark.parametrize(
    "kwargs",
    [{"tag_len": 0}, {"tag_len": 33}, {"cipher": "aes"}, {"cipher": ""}],
)
def test_invalid_aead_settings_rejected_at_construction(kwargs):
    with pytest.raises(ValueError):
        ProtocolConfig(**kwargs)


def test_tag_len_zero_fails_before_deployment_starts():
    # Used to surface as a ValueError from the MAC deep inside key setup.
    with pytest.raises(ValueError, match="tag_len"):
        deploy(30, 8.0, seed=1, config=ProtocolConfig(tag_len=0))


def test_aead_is_built_once_per_config():
    config = ProtocolConfig(cipher="xtea", tag_len=4)
    assert config.aead is config.aead
    assert config.aead == AeadConfig(cipher="xtea", tag_len=4)
    assert replace(config, tag_len=6).aead.tag_len == 6
