"""Step 1 / Step 2 envelopes, counter recovery, dedup cache."""

import pytest
from hypothesis import given, strategies as st

from repro.crypto.aead import AeadConfig, AuthenticationError
from repro.protocol.forwarding import (
    CounterWindow,
    DedupCache,
    InnerEnvelope,
    StaleMessage,
    build_inner,
    check_fresh,
    hop_key,
    open_inner_windowed,
    parse_inner,
    unwrap_hop,
    wrap_hop,
)
from repro.protocol.messages import decode_data_view

AEAD = AeadConfig()
NODE_KEY = bytes(range(16))
CLUSTER_KEY = bytes(range(16, 32))


def _unwrap(key, frame, now_s):
    """A DATA frame's header and its hop layer's ``c1`` (30 s window)."""
    header, sealed = decode_data_view(frame)
    tau_s, c1, fingerprint = unwrap_hop(key, header, sealed, AEAD)
    assert fingerprint == DedupCache.fingerprint(c1)
    check_fresh(tau_s, now_s, 30.0)
    return header, c1


def _window(size, *accepted):
    """A receiver's counter window that has already accepted ``accepted``."""
    window = CounterWindow(size)
    for counter in accepted:
        window.accept(counter)
    return window


class TestStep1:
    @given(st.binary(max_size=100), st.integers(min_value=1, max_value=2**31))
    def test_encrypted_roundtrip(self, reading, counter):
        c1 = build_inner(42, reading, NODE_KEY, counter, AEAD)
        env = parse_inner(c1)
        assert env.source == 42 and env.encrypted
        window = _window(4, *([counter - 1] if counter > 1 else []))
        got, used = open_inner_windowed(env, NODE_KEY, window, AEAD)
        assert got == reading and used == counter
        assert window.high_water == counter

    def test_plaintext_mode(self):
        c1 = build_inner(7, b"reading", None, None, AEAD)
        env = parse_inner(c1)
        assert env == InnerEnvelope(7, False, b"reading")

    def test_counter_window_recovery(self):
        # Messages 1..5 lost; message 6 must still decrypt within window.
        c1 = build_inner(1, b"r", NODE_KEY, 6, AEAD)
        got, used = open_inner_windowed(parse_inner(c1), NODE_KEY, _window(32), AEAD)
        assert got == b"r" and used == 6

    def test_desync_beyond_window_fails(self):
        c1 = build_inner(1, b"r", NODE_KEY, 40, AEAD)
        with pytest.raises(AuthenticationError):
            open_inner_windowed(parse_inner(c1), NODE_KEY, _window(32), AEAD)

    def test_old_counter_not_accepted(self):
        # A counter already seen, or below the window's floor, must fail.
        env = parse_inner(build_inner(1, b"r", NODE_KEY, 5, AEAD))
        with pytest.raises(AuthenticationError):
            open_inner_windowed(env, NODE_KEY, _window(32, 5), AEAD)
        with pytest.raises(AuthenticationError):
            open_inner_windowed(env, NODE_KEY, _window(32, 40), AEAD)

    def test_reordered_counter_within_window_accepted(self):
        # The backward half: an unseen counter below the high-water mark.
        c1 = build_inner(1, b"late", NODE_KEY, 3, AEAD)
        window = _window(32, 5)
        got, used = open_inner_windowed(parse_inner(c1), NODE_KEY, window, AEAD)
        assert got == b"late" and used == 3
        assert window.high_water == 5 and not window.would_accept(3)

    @pytest.mark.parametrize("explicit", [False, True])
    def test_failed_open_leaves_window_unchanged(self, explicit):
        window = _window(8, 1, 2, 4)
        before = (window.high_water, window.candidates())
        # Wrong key: the counter is in the window but nothing verifies.
        c1 = build_inner(1, b"r", bytes(16), 3, AEAD, explicit_counter=explicit)
        with pytest.raises(AuthenticationError):
            open_inner_windowed(parse_inner(c1), NODE_KEY, window, AEAD)
        assert (window.high_water, window.candidates()) == before
        assert window.would_accept(3)

    def test_missing_counter_raises(self):
        with pytest.raises(ValueError):
            build_inner(1, b"r", NODE_KEY, None, AEAD)

    def test_parse_too_short(self):
        with pytest.raises(ValueError):
            parse_inner(b"abc")

    def test_ad_binds_source(self):
        # Re-labelling the clear source id must break the seal.
        c1 = bytearray(build_inner(9, b"r", NODE_KEY, 1, AEAD))
        c1[:4] = (8).to_bytes(4, "big")
        env = parse_inner(bytes(c1))
        with pytest.raises(AuthenticationError):
            open_inner_windowed(env, NODE_KEY, _window(8), AEAD)


class TestStep2:
    def _wrap(self, c1=b"inner", seq=1, tau=100.0, sender=5, cid=9, hops=3):
        return wrap_hop(CLUSTER_KEY, cid, sender, seq, hops, tau, c1, AEAD)

    @given(st.binary(max_size=80), st.integers(min_value=1, max_value=2**30))
    def test_roundtrip(self, c1, seq):
        frame = wrap_hop(CLUSTER_KEY, 9, 5, seq, 3, 100.0, c1, AEAD)
        header, got = _unwrap(CLUSTER_KEY, frame, 100.5)
        assert got == c1
        assert (header.cid, header.sender, header.seq, header.hops_to_bs) == (9, 5, seq, 3)

    def test_freshness_window(self):
        frame = self._wrap(tau=100.0)
        # Within window: fine.
        _unwrap(CLUSTER_KEY, frame, 129.0)
        with pytest.raises(StaleMessage):
            _unwrap(CLUSTER_KEY, frame, 131.0)

    def test_wrong_cluster_key_rejected(self):
        frame = self._wrap()
        with pytest.raises(AuthenticationError):
            _unwrap(bytes(16), frame, 100.0)

    def test_header_tamper_rejected(self):
        frame = bytearray(self._wrap())
        frame[1 + 8] ^= 1  # flip a bit in the sender field
        with pytest.raises(AuthenticationError):
            _unwrap(CLUSTER_KEY, bytes(frame), 100.0)

    def test_payload_tamper_rejected(self):
        frame = bytearray(self._wrap())
        frame[-1] ^= 1
        with pytest.raises(AuthenticationError):
            _unwrap(CLUSTER_KEY, bytes(frame), 100.0)

    def test_per_sender_subkeys_are_independent(self):
        assert hop_key(CLUSTER_KEY, 1) != hop_key(CLUSTER_KEY, 2)
        # Same seq from different senders must not share keystream.
        f1 = wrap_hop(CLUSTER_KEY, 9, 1, 5, 3, 100.0, b"same", AEAD)
        f2 = wrap_hop(CLUSTER_KEY, 9, 2, 5, 3, 100.0, b"same", AEAD)
        assert f1 != f2

    def test_any_cluster_key_holder_can_open(self):
        # The broadcast property: opening needs only K_c, not per-pair state.
        frame = self._wrap(c1=b"shared", sender=77)
        _, c1 = _unwrap(CLUSTER_KEY, frame, 100.0)
        assert c1 == b"shared"


class TestDedupCache:
    def test_detects_duplicates(self):
        cache = DedupCache(16)
        assert not cache.seen_before(b"m1")
        assert cache.seen_before(b"m1")
        assert not cache.seen_before(b"m2")

    def test_lru_eviction(self):
        cache = DedupCache(2)
        cache.seen_before(b"a")
        cache.seen_before(b"b")
        cache.seen_before(b"c")  # evicts a
        assert len(cache) == 2
        assert not cache.seen_before(b"a")

    def test_hit_refreshes_recency(self):
        cache = DedupCache(2)
        cache.seen_before(b"a")
        cache.seen_before(b"b")
        cache.seen_before(b"a")  # a becomes most-recent
        cache.seen_before(b"c")  # evicts b
        assert cache.seen_before(b"a")
        assert not cache.seen_before(b"b")

    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            DedupCache(0)


class TestUnderInjectedFaults:
    """Dedup + counter window fed the fault injector's traffic patterns.

    The ``FaultInjectingTransport`` duplicates and reorders deliveries;
    these are the two structures the data plane relies on to absorb that
    without double-accepting or losing in-window messages.
    """

    @staticmethod
    def _churn(messages, seed, duplicate=0.3, reorder=0.3):
        """Apply FaultPlan-style per-delivery duplication + local reorder."""
        import numpy as np

        rng = np.random.default_rng(seed)
        stream = []
        for m in messages:
            stream.append(m)
            if rng.random() < duplicate:
                stream.append(m)
        i = 0
        while i + 1 < len(stream):
            if rng.random() < reorder:
                stream[i], stream[i + 1] = stream[i + 1], stream[i]
                i += 2  # a swapped pair is one reorder event, like the injector's
            else:
                i += 1
        return stream

    def test_dedup_accepts_each_logical_message_exactly_once(self):
        originals = [b"m%d" % i for i in range(60)]
        for seed in range(5):
            cache = DedupCache(128)
            accepted = [m for m in self._churn(originals, seed) if not cache.seen_before(m)]
            assert sorted(accepted) == sorted(originals)

    def test_counter_window_absorbs_reorder_never_duplicates(self):
        from repro.protocol.forwarding import CounterWindow

        counters = list(range(1, 61))
        for seed in range(5):
            window = CounterWindow(16)
            accepted = []
            for c in self._churn(counters, seed):
                if window.would_accept(c):
                    window.accept(c)
                    accepted.append(c)
            # Local (adjacent-swap) reordering stays well inside the
            # window: nothing is double-accepted, nothing in-window lost.
            assert sorted(accepted) == counters

    def test_counter_window_drops_only_beyond_window_reorder(self):
        from repro.protocol.forwarding import CounterWindow

        window = CounterWindow(8)
        window.accept(20)  # a huge jump: 1..12 are now out the back
        assert not window.would_accept(12)
        assert window.would_accept(13)


class TestCounterWindowProperties:
    @given(st.lists(st.integers(min_value=1, max_value=200), max_size=60))
    def test_never_accepts_twice(self, counters):
        from repro.protocol.forwarding import CounterWindow

        w = CounterWindow(16)
        accepted = []
        for c in counters:
            if w.would_accept(c):
                w.accept(c)
                accepted.append(c)
        # No duplicates ever accepted, high water is the max accepted.
        assert len(accepted) == len(set(accepted))
        if accepted:
            assert w.high_water == max(accepted)

    @given(st.lists(st.integers(min_value=1, max_value=200), max_size=60))
    def test_candidates_are_acceptable(self, counters):
        from repro.protocol.forwarding import CounterWindow

        w = CounterWindow(8)
        for c in counters:
            if w.would_accept(c):
                w.accept(c)
        for cand in w.candidates():
            assert w.would_accept(cand)
