"""Per-node protocol state."""

import pytest

from repro.crypto.keys import SymmetricKey
from repro.protocol.state import HOP_SEQ_WINDOW, NodeState, Preload, Role


def make_preload(**kwargs):
    defaults = dict(
        node_key=SymmetricKey(bytes(16)),
        cluster_key=SymmetricKey(bytes(16)),
        master_key=SymmetricKey(bytes(16)),
        chain_commitment=bytes(16),
    )
    defaults.update(kwargs)
    return Preload(**defaults)


def test_initial_state():
    st = NodeState(node_id=1, preload=make_preload())
    assert st.role is Role.UNDECIDED
    assert not st.decided
    assert st.cid is None
    assert st.stored_key_count() == 0
    assert st.chain.index == 0


def test_chain_index_from_preload():
    st = NodeState(node_id=1, preload=make_preload(chain_index=5))
    assert st.chain.index == 5


def test_counter_allocation_monotonic():
    st = NodeState(node_id=1, preload=make_preload())
    assert [st.next_e2e_counter() for _ in range(3)] == [1, 2, 3]
    assert [st.next_hop_seq() for _ in range(3)] == [1, 2, 3]


def test_hop_seq_repeat_is_rejected():
    st = NodeState(node_id=1, preload=make_preload())
    assert not st.accept_hop_seq(5, 0)  # seq 0 is never sent
    assert st.accept_hop_seq(5, 1)
    assert not st.accept_hop_seq(5, 1)  # replay
    assert st.accept_hop_seq(5, 10)  # gaps allowed
    assert not st.accept_hop_seq(5, 10)
    assert st.accept_hop_seq(6, 1)  # independent per sender


@pytest.mark.parametrize("high", [40, 2**32 - 1])
def test_hop_seq_below_the_window_is_rejected(high):
    st = NodeState(node_id=1, preload=make_preload())
    assert st.accept_hop_seq(5, high)
    oldest = high - HOP_SEQ_WINDOW + 1
    assert not st.accept_hop_seq(5, oldest - 1)
    assert not st.accept_hop_seq(5, 1)
    assert st.accept_hop_seq(5, oldest)  # the window's far edge
    # A jump past the whole window forgets everything below it.
    assert st.accept_hop_seq(7, 3)
    assert st.accept_hop_seq(7, 3 + 2 * HOP_SEQ_WINDOW)
    assert not st.accept_hop_seq(7, 3 + HOP_SEQ_WINDOW)


def test_unseen_in_window_hop_seq_is_accepted_once():
    st = NodeState(node_id=1, preload=make_preload())
    assert st.accept_hop_seq(5, 12)
    # Overtaken or reordered on the way: older, but unseen.
    assert st.accept_hop_seq(5, 11)
    assert not st.accept_hop_seq(5, 11)
    # Still tracked after the window slides past some of its bits.
    assert st.accept_hop_seq(5, 30)
    assert not st.accept_hop_seq(5, 11) and not st.accept_hop_seq(5, 12)
    assert [st.accept_hop_seq(5, s) for s in range(1, 31)] == [
        s not in (11, 12, 30) for s in range(1, 31)
    ]
    assert not any(st.accept_hop_seq(5, s) for s in range(1, 31))


def test_decided_after_role():
    st = NodeState(node_id=1, preload=make_preload())
    st.role = Role.MEMBER
    assert st.decided
