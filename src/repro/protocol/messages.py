"""Wire formats for every protocol message.

A frame is one type byte followed by a type-specific body. Multi-byte
fields are big-endian (network order). Encodings are deliberately tight —
these byte counts feed the radio's airtime and energy accounting, so
message sizes here *are* the protocol's communication cost.

Counter-namespace discipline for messages sealed under ``K_m`` (the setup
master key is shared network-wide, so counters must be globally unique):
HELLO uses counter ``2*id``, LINKINFO ``2*id + 1``.

Message inventory (paper section in parentheses):

===========  ====================================================
HELLO        clusterhead declaration, E_Km(ID | K_ci | MAC) (IV-B.1)
LINKINFO     cluster-key dissemination, E_Km(CID | K_c | MAC) (IV-B.2)
DATA         secure forwarding envelope c2 = CID | y2 | t2 (IV-C)
REVOKE       keychain-authenticated cluster revocation (IV-D)
JOIN_REQ     new-node hello (IV-E)
JOIN_RESP    CID, MAC_Kc(CID | new_id) (IV-E)
REFRESH      intra-cluster key refresh under the old K_c (IV-C/VI)
ACK          per-hop custody acknowledgement, CID | H(c1) | MAC_Kc
===========  ====================================================
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

from repro.crypto.aead import AeadConfig, AuthenticationError, open_, seal

HELLO = 1
LINKINFO = 2
DATA = 3
REVOKE = 4
JOIN_REQ = 5
JOIN_RESP = 6
REFRESH = 7
REELECT_HELLO = 8
ACK = 9

_TYPE_NAMES = {
    HELLO: "HELLO",
    LINKINFO: "LINKINFO",
    DATA: "DATA",
    REVOKE: "REVOKE",
    JOIN_REQ: "JOIN_REQ",
    JOIN_RESP: "JOIN_RESP",
    REFRESH: "REFRESH",
    REELECT_HELLO: "REELECT_HELLO",
    ACK: "ACK",
}

_AD_HELLO = b"H"
_AD_LINK = b"L"
_AD_REFRESH = b"R"

KEY_LEN = 16


class MalformedMessage(ValueError):
    """Structurally invalid frame (distinct from failed authentication)."""


def type_name(msg_type: int) -> str:
    """Human-readable message-type name."""
    return _TYPE_NAMES.get(msg_type, f"UNKNOWN({msg_type})")


def frame_type(frame: bytes) -> int:
    """The type byte of a frame.

    Raises:
        MalformedMessage: on an empty frame.
    """
    if not frame:
        raise MalformedMessage("empty frame")
    return frame[0]


# ---------------------------------------------------------------------------
# HELLO — clusterhead declaration (phase 1)
# ---------------------------------------------------------------------------


# The receiver of a HELLO cannot know the sender's Km counter in advance,
# so the sender id is carried in clear before the sealed blob, used to
# derive the counter (2*id), and authenticated by a second copy inside the
# sealed plaintext. A spoofed clear id selects the wrong counter, producing
# the wrong keystream and a failing tag.


def encode_hello(km: bytes, node_id: int, cluster_key: bytes, aead: AeadConfig) -> bytes:
    """``E_Km(ID_i | K_ci | MAC_Km(...))`` with a clear id prefix."""
    if len(cluster_key) != KEY_LEN:
        raise MalformedMessage(f"cluster key must be {KEY_LEN} bytes")
    sealed = seal(km, 2 * node_id, struct.pack(">I", node_id) + cluster_key, _AD_HELLO, aead)
    return bytes([HELLO]) + struct.pack(">I", node_id) + sealed


def decode_hello(km: bytes, frame: bytes, aead: AeadConfig) -> tuple[int, bytes]:
    """Verify and open a HELLO; returns ``(head_id, cluster_key)``.

    Raises:
        MalformedMessage: wrong structure.
        AuthenticationError: bad MAC or clear/sealed id mismatch.
    """
    if len(frame) < 1 + 4 or frame[0] != HELLO:
        raise MalformedMessage("not a HELLO frame")
    (clear_id,) = struct.unpack(">I", frame[1:5])
    plaintext = open_(km, 2 * clear_id, frame[5:], _AD_HELLO, aead)
    if len(plaintext) != 4 + KEY_LEN:
        raise MalformedMessage("bad HELLO plaintext length")
    (inner_id,) = struct.unpack(">I", plaintext[:4])
    if inner_id != clear_id:
        raise AuthenticationError("HELLO id mismatch")
    return inner_id, plaintext[4:]


# ---------------------------------------------------------------------------
# LINKINFO — cluster-key dissemination (phase 2)
# ---------------------------------------------------------------------------


def encode_linkinfo(
    km: bytes, sender_id: int, cid: int, cluster_key: bytes, aead: AeadConfig
) -> bytes:
    """``E_Km(CID | K_c | MAC_Km(...))`` with clear sender id for the counter."""
    if len(cluster_key) != KEY_LEN:
        raise MalformedMessage(f"cluster key must be {KEY_LEN} bytes")
    sealed = seal(
        km,
        2 * sender_id + 1,
        struct.pack(">II", sender_id, cid) + cluster_key,
        _AD_LINK,
        aead,
    )
    return bytes([LINKINFO]) + struct.pack(">I", sender_id) + sealed


def decode_linkinfo(km: bytes, frame: bytes, aead: AeadConfig) -> tuple[int, int, bytes]:
    """Verify and open a LINKINFO; returns ``(sender_id, cid, cluster_key)``."""
    if len(frame) < 1 + 4 or frame[0] != LINKINFO:
        raise MalformedMessage("not a LINKINFO frame")
    (clear_id,) = struct.unpack(">I", frame[1:5])
    plaintext = open_(km, 2 * clear_id + 1, frame[5:], _AD_LINK, aead)
    if len(plaintext) != 8 + KEY_LEN:
        raise MalformedMessage("bad LINKINFO plaintext length")
    sender_id, cid = struct.unpack(">II", plaintext[:8])
    if sender_id != clear_id:
        raise AuthenticationError("LINKINFO id mismatch")
    return sender_id, cid, plaintext[8:]


# ---------------------------------------------------------------------------
# DATA — the Step-2 envelope c2 = CID | y2 | t2 (Fig. 4)
# ---------------------------------------------------------------------------

#: Clear hop-layer header: CID, hop sender id, hop sequence number, and the
#: sender's hop distance to the base station (used by the gradient
#: forwarding rule). All fields are authenticated as associated data.
_DATA_HEADER = struct.Struct(">IIIh")

#: Bytes before the sealed part of a DATA frame: type byte + clear header.
_DATA_PREFIX = struct.Struct(">BIIIh")


@dataclass(frozen=True)
class DataHeader:
    """Parsed clear header of a DATA frame."""

    cid: int
    sender: int
    seq: int
    hops_to_bs: int


def encode_data(header: DataHeader, sealed: bytes) -> bytes:
    """Assemble ``c2 = CID | y2|t2`` with the clear hop header.

    One pack of the type byte and header and one concatenation: on the
    forwarding hot path this is the cheapest way to build the frame.
    """
    return (
        _DATA_PREFIX.pack(DATA, header.cid, header.sender, header.seq, header.hops_to_bs)
        + sealed
    )


def decode_data_view(frame: bytes) -> "tuple[DataHeader, memoryview]":
    """Split a DATA frame into its clear header and sealed part.

    The sealed part comes back as a ``memoryview`` of the received
    frame, so the split itself copies nothing; :func:`repro.crypto.aead.open_`
    copies it to ``bytes`` once, for its memo key. Every receiver of a
    DATA frame parses it here once and hands both parts to
    :func:`repro.protocol.forwarding.unwrap_hop`; on the loopback fan-out
    one :class:`~repro.protocol.agent.DataReception` parses it for all of
    its receivers.

    Raises:
        MalformedMessage: wrong structure.
    """
    if len(frame) < _DATA_PREFIX.size or frame[0] != DATA:
        raise MalformedMessage("not a DATA frame")
    cid, sender, seq, hops = _DATA_HEADER.unpack_from(frame, 1)
    return DataHeader(cid, sender, seq, hops), memoryview(frame)[_DATA_PREFIX.size :]


def data_associated_data(header: DataHeader) -> bytes:
    """The authenticated associated data of a DATA frame (its clear header)."""
    return _DATA_HEADER.pack(header.cid, header.sender, header.seq, header.hops_to_bs)


# ---------------------------------------------------------------------------
# REVOKE — keychain-authenticated revocation (Sec. IV-D)
# ---------------------------------------------------------------------------


def encode_revoke(index: int, chain_key: bytes, cids: list[int], tag: bytes) -> bytes:
    """Revocation command: chain index, revealed chain key, CIDs, MAC."""
    if len(chain_key) != KEY_LEN:
        raise MalformedMessage(f"chain key must be {KEY_LEN} bytes")
    if len(cids) > 0xFFFF:
        raise MalformedMessage("too many CIDs in one revocation")
    body = struct.pack(">I", index) + chain_key + struct.pack(">H", len(cids))
    body += b"".join(struct.pack(">I", c) for c in cids)
    return bytes([REVOKE]) + body + tag


def decode_revoke(frame: bytes, tag_len: int) -> tuple[int, bytes, list[int], bytes]:
    """Parse a REVOKE frame; returns ``(index, chain_key, cids, tag)``."""
    min_len = 1 + 4 + KEY_LEN + 2 + tag_len
    if len(frame) < min_len or frame[0] != REVOKE:
        raise MalformedMessage("not a REVOKE frame")
    (index,) = struct.unpack_from(">I", frame, 1)
    chain_key = frame[5 : 5 + KEY_LEN]
    (count,) = struct.unpack_from(">H", frame, 5 + KEY_LEN)
    off = 5 + KEY_LEN + 2
    if len(frame) != off + 4 * count + tag_len:
        raise MalformedMessage("bad REVOKE length")
    cids = [struct.unpack_from(">I", frame, off + 4 * i)[0] for i in range(count)]
    tag = frame[off + 4 * count :]
    return index, chain_key, cids, tag


def revoke_mac_input(index: int, cids: list[int]) -> bytes:
    """Canonical MAC input of a revocation command."""
    return b"REV" + struct.pack(">I", index) + b"".join(struct.pack(">I", c) for c in cids)


# ---------------------------------------------------------------------------
# JOIN — new-node addition (Sec. IV-E)
# ---------------------------------------------------------------------------


def encode_join_req(new_id: int) -> bytes:
    """New node announces itself: just its id, in clear (per the paper)."""
    return bytes([JOIN_REQ]) + struct.pack(">I", new_id)


def decode_join_req(frame: bytes) -> int:
    """Parse a JOIN_REQ; returns the new node's id."""
    if len(frame) != 5 or frame[0] != JOIN_REQ:
        raise MalformedMessage("not a JOIN_REQ frame")
    return struct.unpack(">I", frame[1:])[0]


def encode_join_resp(cid: int, tag: bytes) -> bytes:
    """``CID, MAC_Kc(CID | new_id)`` — the impersonation-resistant response."""
    return bytes([JOIN_RESP]) + struct.pack(">I", cid) + tag


def decode_join_resp(frame: bytes, tag_len: int) -> tuple[int, bytes]:
    """Parse a JOIN_RESP; returns ``(cid, tag)``."""
    if len(frame) != 1 + 4 + tag_len or frame[0] != JOIN_RESP:
        raise MalformedMessage("not a JOIN_RESP frame")
    return struct.unpack(">I", frame[1:5])[0], frame[5:]


def join_resp_mac_input(cid: int, new_id: int) -> bytes:
    """Canonical MAC input of a join response (bound to the requester)."""
    return b"JR" + struct.pack(">II", cid, new_id)


# ---------------------------------------------------------------------------
# REFRESH — intra-cluster key refresh under the old cluster key
# ---------------------------------------------------------------------------


def encode_refresh(old_key: bytes, cid: int, epoch: int, new_key: bytes, aead: AeadConfig) -> bytes:
    """New cluster key for ``cid``, sealed under the *old* cluster key."""
    if len(new_key) != KEY_LEN:
        raise MalformedMessage(f"cluster key must be {KEY_LEN} bytes")
    ad = _AD_REFRESH + struct.pack(">II", cid, epoch)
    sealed = seal(old_key, (1 << 40) + epoch, new_key, ad, aead)
    return bytes([REFRESH]) + struct.pack(">II", cid, epoch) + sealed


def decode_refresh(old_key: bytes, frame: bytes, aead: AeadConfig) -> tuple[int, int, bytes]:
    """Verify and open a REFRESH; returns ``(cid, epoch, new_key)``."""
    if len(frame) < 1 + 8 or frame[0] != REFRESH:
        raise MalformedMessage("not a REFRESH frame")
    cid, epoch = struct.unpack(">II", frame[1:9])
    ad = _AD_REFRESH + struct.pack(">II", cid, epoch)
    new_key = open_(old_key, (1 << 40) + epoch, frame[9:], ad, aead)
    if len(new_key) != KEY_LEN:
        raise MalformedMessage("bad REFRESH plaintext length")
    return cid, epoch, new_key


def refresh_header(frame: bytes) -> tuple[int, int]:
    """Peek the clear ``(cid, epoch)`` of a REFRESH frame without a key."""
    if len(frame) < 1 + 8 or frame[0] != REFRESH:
        raise MalformedMessage("not a REFRESH frame")
    return struct.unpack(">II", frame[1:9])


# ---------------------------------------------------------------------------
# ACK — per-hop custody acknowledgement (reliability extension)
# ---------------------------------------------------------------------------

# Not in the paper: the paper's evaluation assumes the MAC layer's loss is
# absorbed by multi-path gradient forwarding alone. The live runtime's
# reliability layer (ProtocolConfig.hop_ack_enabled) adds an explicit
# custody signal so a hop sender can stop retransmitting: a *downhill*
# receiver that authenticated the DATA frame and took custody of the
# message broadcasts the inner blob's fingerprint, MAC-ed under the same
# cluster key that protected the DATA frame. Both ends hold that key, so
# no new key material or counter space is needed — and a plain MAC
# suffices because an ACK carries no secret payload.
#
# The ACK names the hop sender it acknowledges. ACKs are broadcast, so
# every neighbor of the custodian overhears them; an unaddressed ACK
# would let a transmitter cancel its retransmissions on an ACK meant for
# a *different* copy of the same message — whose custody chain may not
# cover this transmitter's downhill direction at all.

#: ACK body: the DATA frame's cluster id, the acknowledged hop sender,
#: and the 8-byte inner-blob fingerprint (``DedupCache.fingerprint``)
#: identifying the logical message.
_ACK_BODY = struct.Struct(">II8s")


def encode_ack(cid: int, hop_sender: int, fingerprint: bytes, tag: bytes) -> bytes:
    """``CID | sender | H(c1) | MAC_Kc("ACK" | CID | sender | H(c1))``."""
    if len(fingerprint) != 8:
        raise MalformedMessage("ACK fingerprint must be 8 bytes")
    return bytes([ACK]) + _ACK_BODY.pack(cid, hop_sender, fingerprint) + tag


def decode_ack(frame: bytes, tag_len: int) -> tuple[int, int, bytes, bytes]:
    """Parse an ACK; returns ``(cid, hop_sender, fingerprint, tag)``."""
    if len(frame) != 1 + _ACK_BODY.size + tag_len or frame[0] != ACK:
        raise MalformedMessage("not an ACK frame")
    cid, hop_sender, fingerprint = _ACK_BODY.unpack_from(frame, 1)
    return cid, hop_sender, fingerprint, frame[1 + _ACK_BODY.size :]


def ack_mac_input(cid: int, hop_sender: int, fingerprint: bytes) -> bytes:
    """Canonical MAC input of a custody acknowledgement."""
    return b"ACK" + struct.pack(">II", cid, hop_sender) + fingerprint


# ---------------------------------------------------------------------------
# REELECT_HELLO — unconstrained re-clustering refresh (Sec. IV-C / VI)
# ---------------------------------------------------------------------------

# "Sensor nodes can repeat the key setup phase with a predefined period in
# order to form new clusters and new cluster keys. Since K_m is no longer
# available ... the current cluster key may be used by the nodes instead."
# A candidate head seals its new cluster key under its *current* cluster
# key; anyone holding that key (cluster members and neighboring-cluster
# edge nodes) can decrypt and join. Section VI shows why this is the
# dangerous variant: a stolen cluster key lets an attacker run exactly
# this broadcast. Multiple members of one cluster may become candidate
# heads in the same epoch, so the seal uses a per-sender subkey derived
# from the old cluster key to keep counter spaces disjoint.

from repro.crypto.kdf import prf as _prf  # noqa: E402  (local, tiny import)

_REELECT_HEADER = struct.Struct(">III")
_AD_REELECT = b"E"


def _reelect_key(old_key: bytes, sender: int) -> bytes:
    return _prf(old_key, b"reelect" + struct.pack(">I", sender))


def encode_reelect_hello(
    old_key: bytes,
    old_cid: int,
    sender: int,
    epoch: int,
    new_key: bytes,
    aead: AeadConfig,
    new_cid: int | None = None,
) -> bytes:
    """Election/link message for epoch ``epoch``, sealed under the old key.

    With ``new_cid`` omitted the sender declares itself head
    (``new_cid = sender``); the link-phase variant re-announces the
    sender's joined cluster (``new_cid`` = its head) so neighbors can
    learn cross-cluster keys, mirroring the initial setup's phase 2.
    """
    if len(new_key) != KEY_LEN:
        raise MalformedMessage(f"cluster key must be {KEY_LEN} bytes")
    new_cid = sender if new_cid is None else new_cid
    header = _REELECT_HEADER.pack(old_cid, sender, epoch)
    plaintext = struct.pack(">I", new_cid) + new_key
    sealed = seal(_reelect_key(old_key, sender), epoch, plaintext, _AD_REELECT + header, aead)
    return bytes([REELECT_HELLO]) + header + sealed


def reelect_header(frame: bytes) -> tuple[int, int, int]:
    """Peek the clear ``(old_cid, sender, epoch)`` without a key."""
    if len(frame) < 1 + _REELECT_HEADER.size or frame[0] != REELECT_HELLO:
        raise MalformedMessage("not a REELECT_HELLO frame")
    return _REELECT_HEADER.unpack_from(frame, 1)


def decode_reelect_hello(
    old_key: bytes, frame: bytes, aead: AeadConfig
) -> tuple[int, int, int, int, bytes]:
    """Verify and open; returns ``(old_cid, sender, epoch, new_cid, new_key)``.

    The sender is declaring itself head iff ``sender == new_cid``.
    """
    old_cid, sender, epoch = reelect_header(frame)
    header = _REELECT_HEADER.pack(old_cid, sender, epoch)
    plaintext = open_(
        _reelect_key(old_key, sender), epoch, frame[1 + _REELECT_HEADER.size :],
        _AD_REELECT + header, aead,
    )
    if len(plaintext) != 4 + KEY_LEN:
        raise MalformedMessage("bad REELECT_HELLO plaintext length")
    (new_cid,) = struct.unpack(">I", plaintext[:4])
    return old_cid, sender, epoch, new_cid, plaintext[4:]
