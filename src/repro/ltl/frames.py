"""LTL frame format.

LTL (Lightweight Transport Layer) frames ride inside UDP datagrams (the
protocol "uses UDP for frame encapsulation and IP for routing packets
across the datacenter network").  A frame is either DATA (a fragment of a
message on a connection), ACK (cumulative acknowledgement, optionally
carrying a DC-QCN congestion-notification flag), or NACK (a request for
timely retransmission of specific sequence numbers after reordering was
detected).

Frames travel as objects, never as bytes.  The header's byte layout
exists for two things only: its size (:data:`LTL_HEADER_BYTES`) and the
CRC-32 that the receiving engine checks.  One u32 of it is reserved and
always 0.
"""

from __future__ import annotations

import struct
import zlib
from dataclasses import dataclass
from typing import Any, Optional, Tuple

#: UDP destination port LTL engines listen on.
LTL_UDP_PORT = 51000

MAGIC = 0x17E5

# Frame types.
TYPE_DATA = 1
TYPE_ACK = 2
TYPE_NACK = 3

# Flags.
FLAG_FIRST_FRAG = 1 << 0
FLAG_LAST_FRAG = 1 << 1
FLAG_CONGESTION = 1 << 2  # DC-QCN CNP piggybacked on an ACK

# magic, type, flags, connection, seq, message, fragment, fragments,
# payload bytes, ack seq, a reserved word (always 0), checksum.
_HEADER = struct.Struct("!HBBIIIHHHIII")
#: Size of the LTL header on the wire.
LTL_HEADER_BYTES = _HEADER.size


@dataclass(slots=True)
class LtlFrame:
    """One LTL protocol data unit.

    ``payload`` may be bytes or an opaque object; ``payload_bytes`` is the
    authoritative size (consistent with :class:`repro.net.packet.Packet`).
    """

    frame_type: int
    connection_id: int
    seq: int = 0
    message_id: int = 0
    fragment: int = 0
    total_fragments: int = 1
    flags: int = 0
    ack_seq: int = 0
    payload: Any = b""
    payload_bytes: int = 0
    #: CRC-32 sealing header + payload; auto-computed when left ``None``.
    checksum: Optional[int] = None
    #: Optional :class:`repro.trace.TraceContext` riding the frame.
    #: Simulation-side metadata only: not covered by the checksum.
    trace: Any = None

    def __post_init__(self) -> None:
        if self.payload_bytes == 0 and isinstance(
                self.payload, (bytes, bytearray)):
            self.payload_bytes = len(self.payload)
        if self.checksum is None:
            self.checksum = self.compute_checksum()

    # -- convenience ----------------------------------------------------
    @property
    def is_data(self) -> bool:
        return self.frame_type == TYPE_DATA

    @property
    def is_ack(self) -> bool:
        return self.frame_type == TYPE_ACK

    @property
    def is_nack(self) -> bool:
        return self.frame_type == TYPE_NACK

    @property
    def is_first_fragment(self) -> bool:
        return bool(self.flags & FLAG_FIRST_FRAG)

    @property
    def is_last_fragment(self) -> bool:
        return bool(self.flags & FLAG_LAST_FRAG)

    @property
    def congestion_flag(self) -> bool:
        return bool(self.flags & FLAG_CONGESTION)

    @property
    def wire_bytes(self) -> int:
        """Frame size carried as UDP payload."""
        return LTL_HEADER_BYTES + self.payload_bytes

    # -- integrity --------------------------------------------------------
    def compute_checksum(self) -> int:
        """CRC-32 over the header (checksum field zeroed) plus the payload.

        Opaque (non-bytes) payloads ride by reference in the simulation,
        so they are covered through their wire length in the header only.
        """
        crc = zlib.crc32(_HEADER.pack(
            MAGIC, self.frame_type, self.flags,
            self.connection_id, self.seq, self.message_id, self.fragment,
            self.total_fragments, self.payload_bytes & 0xFFFF,
            self.ack_seq, 0, 0))  # reserved word, zeroed checksum
        payload = self.payload
        if isinstance(payload, (bytes, bytearray)):
            crc = zlib.crc32(payload, crc)
        return crc & 0xFFFFFFFF

    def verify_checksum(self) -> bool:
        return self.checksum == self.compute_checksum()


def make_data_frame(connection_id: int, seq: int, message_id: int,
                    fragment: int, total_fragments: int, payload: Any,
                    payload_bytes: int) -> LtlFrame:
    """Build a DATA frame with first/last-fragment flags set correctly."""
    flags = 0
    if fragment == 0:
        flags |= FLAG_FIRST_FRAG
    if fragment == total_fragments - 1:
        flags |= FLAG_LAST_FRAG
    return LtlFrame(frame_type=TYPE_DATA, connection_id=connection_id,
                    seq=seq, message_id=message_id, fragment=fragment,
                    total_fragments=total_fragments, flags=flags,
                    payload=payload, payload_bytes=payload_bytes)


def make_ack(connection_id: int, ack_seq: int,
             congestion: bool = False) -> LtlFrame:
    """Cumulative ACK up to and including ``ack_seq``."""
    flags = FLAG_CONGESTION if congestion else 0
    return LtlFrame(frame_type=TYPE_ACK, connection_id=connection_id,
                    flags=flags, ack_seq=ack_seq)


def make_nack(connection_id: int, missing: Tuple[int, int]) -> LtlFrame:
    """NACK requesting retransmission of seqs in ``[missing[0], missing[1]]``.

    The missing range rides in the payload as two packed u32s.
    """
    lo, hi = missing
    payload = struct.pack("!II", lo, hi)
    return LtlFrame(frame_type=TYPE_NACK, connection_id=connection_id,
                    payload=payload, payload_bytes=len(payload))


def nack_range(frame: LtlFrame) -> Tuple[int, int]:
    """Decode the missing-seq range from a NACK frame."""
    if not frame.is_nack:
        raise ValueError("not a NACK frame")
    return struct.unpack("!II", frame.payload[:8])
