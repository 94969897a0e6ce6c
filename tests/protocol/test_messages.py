"""Wire-format round-trips and tamper rejection for every message type."""

import pytest
from hypothesis import given, strategies as st

from repro.crypto.aead import AeadConfig, AuthenticationError
from repro.protocol import messages as m

AEAD = AeadConfig()
KM = bytes(range(16))
KC = bytes(range(16, 32))

node_ids = st.integers(min_value=1, max_value=2**31)
keys16 = st.binary(min_size=16, max_size=16)


class TestHello:
    @given(node_ids, keys16)
    def test_roundtrip(self, nid, kc):
        frame = m.encode_hello(KM, nid, kc, AEAD)
        assert m.frame_type(frame) == m.HELLO
        assert m.decode_hello(KM, frame, AEAD) == (nid, kc)

    def test_wrong_master_key_rejected(self):
        frame = m.encode_hello(KM, 5, KC, AEAD)
        with pytest.raises(AuthenticationError):
            m.decode_hello(bytes(16), frame, AEAD)

    def test_spoofed_clear_id_rejected(self):
        frame = bytearray(m.encode_hello(KM, 5, KC, AEAD))
        frame[1:5] = (9).to_bytes(4, "big")
        with pytest.raises(AuthenticationError):
            m.decode_hello(KM, bytes(frame), AEAD)

    def test_malformed(self):
        with pytest.raises(m.MalformedMessage):
            m.decode_hello(KM, bytes([m.HELLO, 1]), AEAD)
        with pytest.raises(m.MalformedMessage):
            m.decode_hello(KM, bytes([m.DATA]) + bytes(30), AEAD)

    def test_key_length_enforced(self):
        with pytest.raises(m.MalformedMessage):
            m.encode_hello(KM, 1, b"short", AEAD)


class TestLinkInfo:
    @given(node_ids, node_ids, keys16)
    def test_roundtrip(self, sender, cid, kc):
        frame = m.encode_linkinfo(KM, sender, cid, kc, AEAD)
        assert m.decode_linkinfo(KM, frame, AEAD) == (sender, cid, kc)

    def test_hello_and_linkinfo_counters_disjoint(self):
        # Same sender id in both message types: ciphertexts must not share
        # keystream (HELLO uses counter 2*id, LINKINFO 2*id + 1).
        hello = m.encode_hello(KM, 7, KC, AEAD)
        link = m.encode_linkinfo(KM, 7, 7, KC, AEAD)
        # Compare the sealed payload regions.
        assert hello[5:13] != link[5:13]

    def test_tampered_cid_rejected(self):
        frame = bytearray(m.encode_linkinfo(KM, 3, 4, KC, AEAD))
        frame[-1] ^= 1
        with pytest.raises(AuthenticationError):
            m.decode_linkinfo(KM, bytes(frame), AEAD)


class TestData:
    @given(node_ids, node_ids, st.integers(min_value=0, max_value=2**31),
           st.integers(min_value=-1, max_value=2**14), st.binary(max_size=60))
    def test_roundtrip(self, cid, sender, seq, hops, sealed):
        header = m.DataHeader(cid, sender, seq, hops)
        frame = m.encode_data(header, sealed)
        got_header, got_sealed = m.decode_data_view(frame)
        assert got_header == header
        assert isinstance(got_sealed, memoryview)  # zero-copy into the frame
        assert bytes(got_sealed) == sealed

    def test_malformed(self):
        with pytest.raises(m.MalformedMessage):
            m.decode_data_view(bytes([m.DATA, 0, 0]))

    def test_associated_data_covers_header(self):
        h1 = m.DataHeader(1, 2, 3, 4)
        h2 = m.DataHeader(1, 2, 3, 5)
        assert m.data_associated_data(h1) != m.data_associated_data(h2)


class TestDecodeDataView:
    @given(node_ids, node_ids, st.integers(min_value=0, max_value=2**31),
           st.integers(min_value=-1, max_value=2**14), st.binary(max_size=60))
    def test_matches_decode_data(self, cid, sender, seq, hops, sealed):
        # The view must alias exactly the bytes the old copying decoder
        # returned: the frame tail after the type byte and clear header,
        # whose header fields are the DATA associated data.
        header = m.DataHeader(cid, sender, seq, hops)
        frame = m.encode_data(header, sealed)
        got_header, view = m.decode_data_view(frame)
        prefix = len(frame) - len(sealed)
        assert view.obj is frame
        assert bytes(view) == frame[prefix:]
        assert frame[1:prefix] == m.data_associated_data(got_header)

    def test_malformed(self):
        with pytest.raises(m.MalformedMessage):
            m.decode_data_view(bytes([m.DATA, 0, 0]))
        with pytest.raises(m.MalformedMessage):
            m.decode_data_view(bytes([m.HELLO]) + bytes(30))


class TestRevoke:
    @given(st.integers(min_value=0, max_value=2**31),
           st.lists(st.integers(min_value=0, max_value=2**31), max_size=20))
    def test_roundtrip(self, index, cids):
        frame = m.encode_revoke(index, KC, cids, b"T" * 8)
        got = m.decode_revoke(frame, tag_len=8)
        assert got == (index, KC, cids, b"T" * 8)

    def test_empty_cid_list(self):
        frame = m.encode_revoke(1, KC, [], b"T" * 8)
        assert m.decode_revoke(frame, 8)[2] == []

    def test_length_mismatch_rejected(self):
        frame = m.encode_revoke(1, KC, [2, 3], b"T" * 8)
        with pytest.raises(m.MalformedMessage):
            m.decode_revoke(frame[:-1], tag_len=8)

    def test_mac_input_binds_index_and_cids(self):
        assert m.revoke_mac_input(1, [2]) != m.revoke_mac_input(2, [2])
        assert m.revoke_mac_input(1, [2]) != m.revoke_mac_input(1, [3])


class TestJoin:
    @given(node_ids)
    def test_req_roundtrip(self, nid):
        assert m.decode_join_req(m.encode_join_req(nid)) == nid

    def test_req_malformed(self):
        with pytest.raises(m.MalformedMessage):
            m.decode_join_req(bytes([m.JOIN_REQ, 1]))

    @given(node_ids)
    def test_resp_roundtrip(self, cid):
        frame = m.encode_join_resp(cid, b"12345678")
        assert m.decode_join_resp(frame, 8) == (cid, b"12345678")

    def test_resp_mac_input_binds_requester(self):
        assert m.join_resp_mac_input(1, 100) != m.join_resp_mac_input(1, 101)


class TestRefresh:
    @given(node_ids, st.integers(min_value=0, max_value=2**20), keys16)
    def test_roundtrip(self, cid, epoch, new_key):
        frame = m.encode_refresh(KC, cid, epoch, new_key, AEAD)
        assert m.decode_refresh(KC, frame, AEAD) == (cid, epoch, new_key)
        assert m.refresh_header(frame) == (cid, epoch)

    def test_wrong_old_key_rejected(self):
        frame = m.encode_refresh(KC, 1, 1, bytes(16), AEAD)
        with pytest.raises(AuthenticationError):
            m.decode_refresh(bytes(16), frame, AEAD)

    def test_header_tamper_rejected(self):
        frame = bytearray(m.encode_refresh(KC, 1, 1, bytes(16), AEAD))
        frame[4] ^= 1  # flip a cid bit
        with pytest.raises(AuthenticationError):
            m.decode_refresh(KC, bytes(frame), AEAD)


def test_type_names():
    assert m.type_name(m.HELLO) == "HELLO"
    assert "UNKNOWN" in m.type_name(99)


def test_frame_type_empty():
    with pytest.raises(m.MalformedMessage):
        m.frame_type(b"")
