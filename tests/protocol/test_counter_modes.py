"""Implicit vs explicit Step-1 counter modes (Sec. IV-C's deployment choice)."""

import pytest

from repro.crypto.aead import AeadConfig, AuthenticationError
from repro.protocol.config import ProtocolConfig
from repro.protocol.forwarding import CounterWindow, build_inner, open_inner_windowed, parse_inner
from tests.conftest import run_for, small_deployment

AEAD = AeadConfig()
KEY = bytes(range(16))


class TestEnvelope:
    def test_explicit_roundtrip(self):
        c1 = build_inner(5, b"reading", KEY, 77, AEAD, explicit_counter=True)
        env = parse_inner(c1)
        assert env.encrypted and env.counter == 77
        reading, used = open_inner_windowed(env, KEY, CounterWindow(1), AEAD)
        assert reading == b"reading" and used == 77

    def test_explicit_costs_six_bytes(self):
        implicit = build_inner(5, b"reading", KEY, 77, AEAD)
        explicit = build_inner(5, b"reading", KEY, 77, AEAD, explicit_counter=True)
        assert len(explicit) == len(implicit) + 6

    def test_explicit_survives_arbitrary_desync(self):
        # A counter jump of a million is fine: no window search needed.
        c1 = build_inner(5, b"r", KEY, 1_000_000, AEAD, explicit_counter=True)
        window = CounterWindow(1)
        window.accept(3)
        reading, used = open_inner_windowed(parse_inner(c1), KEY, window, AEAD)
        assert used == 1_000_000

    def test_explicit_replay_rejected(self):
        c1 = build_inner(5, b"r", KEY, 10, AEAD, explicit_counter=True)
        env = parse_inner(c1)
        window = CounterWindow(1)
        window.accept(9)
        open_inner_windowed(env, KEY, window, AEAD)
        with pytest.raises(AuthenticationError, match="replayed"):
            open_inner_windowed(env, KEY, window, AEAD)

    def test_explicit_counter_is_authenticated(self):
        # Tampering with the clear counter bytes breaks the seal (the
        # counter feeds the keystream and the tag).
        c1 = bytearray(build_inner(5, b"r", KEY, 10, AEAD, explicit_counter=True))
        c1[5 + 5] ^= 1  # last byte of the 6-byte counter field
        env = parse_inner(bytes(c1))
        with pytest.raises(AuthenticationError):
            open_inner_windowed(env, KEY, CounterWindow(1), AEAD)

    def test_truncated_explicit_envelope(self):
        with pytest.raises(ValueError):
            parse_inner(bytes([0, 0, 0, 5, 2, 0, 0]))  # flag=2, short ctr


class TestDeployment:
    def test_config_validation(self):
        with pytest.raises(ValueError):
            ProtocolConfig(e2e_counter_mode="bogus")

    def test_explicit_mode_end_to_end(self):
        deployed = small_deployment(
            seed=150, config=ProtocolConfig(e2e_counter_mode="explicit")
        )
        src = deployed.gradient.routable()[0]
        deployed.agents[src].send_reading(b"explicit-mode")
        run_for(deployed, 30)
        assert any(r.data == b"explicit-mode" for r in deployed.bs_agent.delivered)

    def test_explicit_mode_tolerates_huge_desync(self):
        deployed = small_deployment(
            seed=151, config=ProtocolConfig(e2e_counter_mode="explicit")
        )
        src = deployed.gradient.routable()[0]
        agent = deployed.agents[src]
        for _ in range(500):  # way beyond any implicit window
            agent.state.next_e2e_counter()
        agent.send_reading(b"after-desync")
        run_for(deployed, 30)
        assert any(r.data == b"after-desync" for r in deployed.bs_agent.delivered)

    def test_implicit_mode_fails_at_same_desync(self):
        deployed = small_deployment(
            seed=151, config=ProtocolConfig(e2e_counter_mode="implicit")
        )
        src = deployed.gradient.routable()[0]
        agent = deployed.agents[src]
        for _ in range(500):
            agent.state.next_e2e_counter()
        agent.send_reading(b"after-desync")
        run_for(deployed, 30)
        assert not any(r.data == b"after-desync" for r in deployed.bs_agent.delivered)
