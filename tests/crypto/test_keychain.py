"""One-way key chains: generation, verification, replay, loss tolerance."""

import pytest
from hypothesis import given, strategies as st

from repro.crypto.kdf import chain_step
from repro.crypto.keychain import ChainVerifier, KeyChain

SEED = b"S" * 16


def test_commitment_is_f_of_first_key():
    chain = KeyChain(5, seed=SEED)
    _, k1 = chain.reveal_next()
    assert chain_step(k1) == chain.commitment


def test_sequential_verification():
    chain = KeyChain(10, seed=SEED)
    verifier = ChainVerifier(chain.commitment)
    for expected_index in range(1, 11):
        index, key = chain.reveal_next()
        assert index == expected_index
        assert verifier.verify(index, key)
        assert verifier.index == index


def test_replay_rejected():
    chain = KeyChain(5, seed=SEED)
    verifier = ChainVerifier(chain.commitment)
    index, key = chain.reveal_next()
    assert verifier.verify(index, key)
    assert not verifier.verify(index, key)


def test_skipped_indices_still_verify():
    # Lost revocation messages: a later key must verify by walking F.
    chain = KeyChain(8, seed=SEED)
    verifier = ChainVerifier(chain.commitment)
    chain.reveal_next()  # K_1 lost in transit
    chain.reveal_next()  # K_2 lost in transit
    index, key = chain.reveal_next()
    assert index == 3
    assert verifier.verify(index, key)
    # But the lost ones can no longer be replayed afterwards.
    assert not verifier.verify(1, chain.key_at(1))


@given(st.binary(min_size=16, max_size=16))
def test_forged_key_rejected(forged):
    chain = KeyChain(4, seed=SEED)
    verifier = ChainVerifier(chain.commitment)
    if forged != chain.key_at(1):
        assert not verifier.verify(1, forged)


def test_exhaustion():
    chain = KeyChain(2, seed=SEED)
    chain.reveal_next()
    chain.reveal_next()
    assert chain.remaining == 0
    with pytest.raises(RuntimeError):
        chain.reveal_next()


def test_remaining_counts_down():
    chain = KeyChain(3, seed=SEED)
    assert chain.remaining == 3
    chain.reveal_next()
    assert chain.remaining == 2


def test_invalid_construction():
    with pytest.raises(ValueError):
        KeyChain(0, seed=SEED)
    with pytest.raises(ValueError):
        KeyChain(3, seed=b"short")


def test_adversary_cannot_extend_chain():
    # Knowing K_0..K_l gives no way to produce K_{l+1}: any candidate that
    # is not the true key fails (we simulate by trying chain_step outputs,
    # which walk the wrong direction).
    chain = KeyChain(4, seed=SEED)
    verifier = ChainVerifier(chain.commitment)
    i1, k1 = chain.reveal_next()
    assert verifier.verify(i1, k1)
    forged_next = chain_step(k1)  # adversary can only go backwards
    assert not verifier.verify(2, forged_next)


def test_is_duplicate_recognises_accepted_keys_only():
    chain = KeyChain(5, seed=SEED)
    verifier = ChainVerifier(chain.commitment)
    i1, k1 = chain.reveal_next()
    assert not verifier.is_duplicate(i1, k1)  # not yet accepted
    assert verifier.verify(i1, k1)
    i2, k2 = chain.reveal_next()
    assert verifier.verify(i2, k2)
    # Echoes of both accepted keys, including one older than the latest.
    assert verifier.is_duplicate(i2, k2)
    assert verifier.is_duplicate(i1, k1)
    # A key under the wrong old index, a future index and the public
    # commitment (index 0) are not duplicates.
    assert not verifier.is_duplicate(i1, k2)
    assert not verifier.is_duplicate(3, chain.key_at(3))
    assert not verifier.is_duplicate(0, chain.commitment)


@given(st.binary(min_size=16, max_size=16))
def test_forged_key_at_old_index_is_not_a_duplicate(forged):
    chain = KeyChain(4, seed=SEED)
    verifier = ChainVerifier(chain.commitment)
    for _ in range(2):
        assert verifier.verify(*chain.reveal_next())
    for index in (1, 2):
        if forged != chain.key_at(index):
            assert not verifier.is_duplicate(index, forged)
