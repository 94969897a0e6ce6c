"""The UDP datagram codec: sender-id header + frame, fuzzed."""

from hypothesis import given, strategies as st

from repro.runtime.udp import decode_datagram, encode_datagram

SENDER_IDS = st.integers(min_value=0, max_value=2**32 - 1)


@given(SENDER_IDS, st.binary(max_size=256))
def test_round_trip(sender_id, frame):
    assert decode_datagram(encode_datagram(sender_id, frame)) == (sender_id, frame)


@given(st.binary(max_size=3))
def test_truncated_datagram_decodes_to_none(data):
    assert decode_datagram(data) is None


@given(st.binary(max_size=512))
def test_decode_never_raises(data):
    decoded = decode_datagram(data)
    if decoded is not None:
        sender_id, frame = decoded
        assert encode_datagram(sender_id, frame) == data
