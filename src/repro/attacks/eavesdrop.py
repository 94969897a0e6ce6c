"""Passive eavesdropping over the whole field.

The broadcast medium gives a passive adversary every frame on the air
(Sec. I). :class:`Eavesdropper` hooks the radio's monitor interface,
records traffic, and can later answer: *given some captured key material,
which recorded frames can I actually read?* — turning the paper's
confidentiality claims into a measurement.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.crypto.aead import AuthenticationError
from repro.protocol import messages
from repro.protocol.forwarding import parse_inner, unwrap_hop

if TYPE_CHECKING:  # pragma: no cover
    from repro.protocol.config import ProtocolConfig
    from repro.sim.network import Network


@dataclass
class RecordedFrame:
    """One overheard transmission."""

    time: float
    sender: int
    frame: bytes


class Eavesdropper:
    """Global passive listener with optional later key material."""

    def __init__(self, network: "Network", config: "ProtocolConfig") -> None:
        self.network = network
        self.config = config
        self.frames: list[RecordedFrame] = []
        network.radio.monitors.append(self._on_air)

    def _on_air(self, time: float, sender: int, frame: bytes) -> None:
        self.frames.append(RecordedFrame(time, sender, frame))

    def data_frames(self) -> list[RecordedFrame]:
        """Recorded DATA transmissions only."""
        return [r for r in self.frames if r.frame and r.frame[0] == messages.DATA]

    def readable_hop_payloads(self, cluster_keys: dict[int, bytes]) -> list[bytes]:
        """Inner blobs ``c1`` recoverable with the given cluster keys.

        Freshness is irrelevant to a passive adversary, who decrypts
        offline, so ``τ`` is never checked.
        """
        out: list[bytes] = []
        for rec in self.data_frames():
            try:
                header, sealed = messages.decode_data_view(rec.frame)
            except messages.MalformedMessage:
                continue
            key = cluster_keys.get(header.cid)
            if key is None:
                continue
            try:
                _, c1, _ = unwrap_hop(key, header, sealed, self.config.aead)
            except AuthenticationError:
                continue
            out.append(c1)
        return out

    def readable_reading_fraction(self, cluster_keys: dict[int, bytes]) -> float:
        """Fraction of overheard DATA frames whose *reading* is exposed.

        With Step 1 on, breaking the hop layer still yields only the
        end-to-end ciphertext — the reading itself stays protected unless
        the adversary also has that source's ``K_i``.
        """
        frames = self.data_frames()
        if not frames:
            return 0.0
        exposed = 0
        for c1 in self.readable_hop_payloads(cluster_keys):
            envelope = parse_inner(c1)
            if not envelope.encrypted:
                exposed += 1
        return exposed / len(frames)
