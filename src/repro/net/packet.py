"""Packet and header models.

Packets carry header objects (Ethernet / IPv4 / UDP) holding the fields
that switches, shells and the crypto flow tap read, and are never
serialized: payloads may be either ``bytes`` or an opaque Python object
plus a length, so bulk simulations need not materialize megabytes.

Sizes follow the wire: 14 B Ethernet header + 4 B FCS, 20 B IPv4, 8 B UDP.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import count
from typing import Any, Optional

ETHERNET_HEADER_BYTES = 14
ETHERNET_FCS_BYTES = 4
IPV4_HEADER_BYTES = 20
UDP_HEADER_BYTES = 8
#: Minimum Ethernet frame size (without preamble/IFG).
MIN_FRAME_BYTES = 64
#: Standard MTU-sized frame payload.
MTU_BYTES = 1500

ETHERTYPE_IPV4 = 0x0800
#: EtherType used by PFC pause frames (MAC control).
ETHERTYPE_MAC_CONTROL = 0x8808

IPPROTO_UDP = 17


class TrafficClass:
    """802.1p-style priority classes used by the datacenter fabric.

    ``LOSSLESS`` is the PFC-protected class provisioned for RDMA/FCoE-style
    traffic; LTL rides it.  ``BEST_EFFORT`` carries baseline TCP-ish load.
    """

    BEST_EFFORT = 0
    BULK = 1
    LOSSLESS = 3
    CONTROL = 6

    ALL = (BEST_EFFORT, BULK, LOSSLESS, CONTROL)

    @classmethod
    def is_lossless(cls, tc: int) -> bool:
        return tc == cls.LOSSLESS


@dataclass(slots=True)
class EthernetHeader:
    """Destination/source MAC plus EtherType and 802.1p priority."""

    dst_mac: str
    src_mac: str
    ethertype: int = ETHERTYPE_IPV4
    priority: int = TrafficClass.BEST_EFFORT


@dataclass(slots=True)
class Ipv4Header:
    """The subset of IPv4 the fabric and LTL need."""

    src_ip: str
    dst_ip: str
    protocol: int = IPPROTO_UDP
    #: Set to 0b11 (Congestion Experienced) by a marking switch.
    ecn: int = 0


@dataclass(slots=True)
class UdpHeader:
    """UDP ports (length and checksum are implied by the packet)."""

    src_port: int
    dst_port: int


_packet_ids = count()


@dataclass(slots=True)
class Packet:
    """A frame in flight through the simulated fabric.

    ``payload`` may be real ``bytes`` or any Python object; ``payload_bytes``
    is the authoritative on-wire payload size.  ``traffic_class`` selects the
    switch queue; ``ecn_marked`` is set by switches implementing RED/ECN.
    """

    eth: EthernetHeader
    ip: Optional[Ipv4Header] = None
    udp: Optional[UdpHeader] = None
    payload: Any = b""
    payload_bytes: int = -1
    packet_id: int = field(default_factory=lambda: next(_packet_ids))
    created_at: float = 0.0
    ecn_marked: bool = False
    hops: int = 0
    #: Optional :class:`repro.trace.TraceContext` riding the packet.
    #: ``None`` (the default) keeps tracing free: tap sites only check
    #: ``packet.trace is not None``.  Not part of the wire format.
    trace: Any = None

    def __post_init__(self) -> None:
        if self.payload_bytes < 0:
            if isinstance(self.payload, (bytes, bytearray)):
                self.payload_bytes = len(self.payload)
            else:
                raise ValueError(
                    "payload_bytes required for non-bytes payloads")

    @property
    def traffic_class(self) -> int:
        return self.eth.priority

    @property
    def wire_bytes(self) -> int:
        """Total frame size on the wire (headers + payload + FCS)."""
        size = ETHERNET_HEADER_BYTES + ETHERNET_FCS_BYTES
        if self.ip is not None:
            size += IPV4_HEADER_BYTES
        if self.udp is not None:
            size += UDP_HEADER_BYTES
        size += self.payload_bytes
        return max(size, MIN_FRAME_BYTES)


def make_udp_packet(src_index: int, dst_index: int, src_ip: str, dst_ip: str,
                    src_mac: str, dst_mac: str, src_port: int, dst_port: int,
                    payload: Any, payload_bytes: int = -1,
                    traffic_class: int = TrafficClass.BEST_EFFORT) -> Packet:
    """Convenience constructor for a UDP/IPv4/Ethernet packet."""
    eth = EthernetHeader(dst_mac=dst_mac, src_mac=src_mac,
                         ethertype=ETHERTYPE_IPV4, priority=traffic_class)
    ip = Ipv4Header(src_ip=src_ip, dst_ip=dst_ip, protocol=IPPROTO_UDP)
    udp = UdpHeader(src_port=src_port, dst_port=dst_port)
    return Packet(eth=eth, ip=ip, udp=udp, payload=payload,
                  payload_bytes=payload_bytes)
