"""Per-flow transparent line-rate encryption in the bridge tap (§IV).

"As each packet passes from the NIC through the FPGA to the ToR, its
header is examined to determine if it is part of an encrypted flow that
was previously set up by software.  If it is, the software-provided
encryption key is read from internal FPGA SRAM or the FPGA-attached DRAM
and is used to encrypt or decrypt the packet. ... encryption occurs
transparently from software's perspective, which sees all packets as
unencrypted at the end points."

:class:`EncryptionTap` provides the pair of bridge taps; encryption is
*real* (the AES from :mod:`repro.crypto`), and timing comes from
:class:`~repro.crypto.engine.FpgaCryptoEngine` via the tap's
``latency_for`` hook.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from typing import Dict, Optional

from ..net.packet import Packet
from .engine import FpgaCryptoConfig, FpgaCryptoEngine
from .modes import (
    AuthenticationError,
    GcmContext,
    PaddingError,
    cbc_hmac_decrypt,
    cbc_hmac_encrypt,
)


@dataclass(frozen=True)
class FlowKey:
    """Classifier: the 5-tuple identifying an encrypted flow."""

    src_ip: str
    dst_ip: str
    src_port: int
    dst_port: int
    protocol: int = 17

    def reversed(self) -> "FlowKey":
        """The same flow seen from the other endpoint's perspective."""
        return FlowKey(src_ip=self.dst_ip, dst_ip=self.src_ip,
                       src_port=self.dst_port, dst_port=self.src_port,
                       protocol=self.protocol)

    @classmethod
    def of_packet(cls, packet: Packet) -> Optional["FlowKey"]:
        if packet.ip is None or packet.udp is None:
            return None
        return cls(src_ip=packet.ip.src_ip, dst_ip=packet.ip.dst_ip,
                   src_port=packet.udp.src_port,
                   dst_port=packet.udp.dst_port,
                   protocol=packet.ip.protocol)


@dataclass
class FlowEntry:
    """Keys and state for one encrypted flow."""

    key: bytes
    mac_key: bytes
    suite: str = "aes-gcm-128"
    #: 8-byte per-flow salt for nonce construction.
    salt: bytes = b"\x00" * 8
    #: Monotone packet counter (nonce uniqueness).
    counter: int = 0
    #: Whether the entry fits in on-chip SRAM (vs FPGA-attached DRAM).
    in_sram: bool = True
    packets_encrypted: int = 0
    packets_decrypted: int = 0
    _gcm: Optional[GcmContext] = field(default=None, init=False,
                                       repr=False, compare=False)
    _gcm_key: bytes = field(default=b"", init=False, repr=False,
                            compare=False)

    @property
    def gcm(self) -> GcmContext:
        """The flow's AES-GCM context, as the FPGA holds the flow key in
        SRAM: built on first use, and again only when software changes
        ``key``."""
        if self._gcm is None or self._gcm_key != self.key:
            self._gcm = GcmContext(self.key)
            self._gcm_key = self.key
        return self._gcm

    def next_nonce(self) -> bytes:
        """The salt and the next packet counter.  Raises
        :class:`OverflowError` once the 32-bit counter is spent, since a
        wrapped counter would reuse a nonce under the same key."""
        if self.counter >= 0xFFFFFFFF:
            raise OverflowError("flow packet counter exhausted; re-key "
                                "the flow")
        self.counter += 1
        return self.salt + struct.pack("!I", self.counter)


@dataclass
class EncryptedPayload:
    """Wire representation of an encrypted packet payload."""

    suite: str
    nonce: bytes
    ciphertext: bytes
    tag: bytes

    @property
    def wire_bytes(self) -> int:
        return len(self.nonce) + len(self.ciphertext) + len(self.tag)


class FlowTable:
    """Flow classifier backed by SRAM with DRAM overflow.

    ``sram_capacity`` flows get single-cycle key lookup; beyond that,
    entries live in the FPGA-attached DRAM and each packet pays an extra
    DRAM access on lookup.
    """

    def __init__(self, sram_capacity: int = 512,
                 dram_lookup_latency: float = 0.12e-6):
        self.sram_capacity = sram_capacity
        self.dram_lookup_latency = dram_lookup_latency
        self._flows: Dict[FlowKey, FlowEntry] = {}

    def setup_flow(self, key: FlowKey, enc_key: bytes,
                   mac_key: bytes = b"", suite: str = "aes-gcm-128",
                   salt: bytes = b"\x00" * 8) -> FlowEntry:
        """Software control plane installs a flow (both directions share
        one entry per endpoint; the peer installs the mirrored key)."""
        entry = FlowEntry(key=enc_key, mac_key=mac_key or enc_key,
                          suite=suite, salt=salt,
                          in_sram=len(self._flows) < self.sram_capacity)
        self._flows[key] = entry
        return entry

    def lookup(self, packet: Packet) -> Optional[FlowEntry]:
        flow_key = FlowKey.of_packet(packet)
        if flow_key is None:
            return None
        entry = self._flows.get(flow_key)
        if entry is None:
            entry = self._flows.get(flow_key.reversed())
        return entry

    def __len__(self) -> int:
        return len(self._flows)


class EncryptionTap:
    """Bridge taps performing transparent per-flow crypto.

    Install ``outbound`` as a NIC->TOR tap and ``inbound`` as a TOR->NIC
    tap.  Only ``bytes`` payloads are transformed (simulation-object
    payloads pass through untouched, since there is nothing real to
    encrypt).
    """

    def __init__(self, flow_table: Optional[FlowTable] = None,
                 engine: Optional[FpgaCryptoEngine] = None):
        # Explicit None check: an *empty* FlowTable is falsy (__len__ 0)
        # but must still be honored.
        self.flows = flow_table if flow_table is not None else FlowTable()
        self.engine = engine or FpgaCryptoEngine(FpgaCryptoConfig())
        self.encrypted = 0
        self.decrypted = 0
        self.auth_failures = 0

    # -- timing hook consumed by the bridge ------------------------------
    def _latency(self, packet: Packet) -> float:
        entry = self.flows.lookup(packet)
        if entry is None:
            return 0.0
        latency = self.engine.latency(entry.suite, packet.payload_bytes)
        if not entry.in_sram:
            latency += self.flows.dram_lookup_latency
        return latency

    # -- outbound: encrypt ------------------------------------------------
    def outbound(self, packet: Packet) -> Packet:
        entry = self.flows.lookup(packet)
        if entry is None or not isinstance(packet.payload,
                                           (bytes, bytearray)):
            return packet
        nonce = entry.next_nonce()
        if entry.suite.startswith("aes-gcm"):
            ciphertext, tag = entry.gcm.encrypt(nonce, bytes(packet.payload))
        else:
            iv = (nonce * 2)[:16]
            ciphertext, tag = cbc_hmac_encrypt(
                entry.key, entry.mac_key, iv, bytes(packet.payload))
            nonce = iv
        enc = EncryptedPayload(suite=entry.suite, nonce=nonce,
                               ciphertext=ciphertext, tag=tag)
        packet.payload = enc
        packet.payload_bytes = enc.wire_bytes
        entry.packets_encrypted += 1
        self.encrypted += 1
        return packet

    # -- inbound: decrypt ---------------------------------------------------
    def inbound(self, packet: Packet) -> Optional[Packet]:
        if not isinstance(packet.payload, EncryptedPayload):
            return packet
        entry = self.flows.lookup(packet)
        if entry is None:
            return packet  # not our flow: bridge it through encrypted
        enc: EncryptedPayload = packet.payload
        # Only a failed check on the packet drops it; any other error is
        # a fault in the cipher code and propagates.
        try:
            if enc.suite.startswith("aes-gcm"):
                plaintext = entry.gcm.decrypt(enc.nonce, enc.ciphertext,
                                              enc.tag)
            else:
                plaintext = cbc_hmac_decrypt(
                    entry.key, entry.mac_key, enc.nonce, enc.ciphertext,
                    enc.tag)
        except (AuthenticationError, PaddingError):
            self.auth_failures += 1
            return None  # drop forged/corrupted packets
        packet.payload = plaintext
        packet.payload_bytes = len(plaintext)
        entry.packets_decrypted += 1
        self.decrypted += 1
        return packet

    def install(self, bridge) -> None:
        """Attach both directions to a :class:`~repro.fpga.bridge.Bridge`.

        The latency hook is bound onto the tap callables so the bridge
        stalls packets for the crypto pipeline time.
        """
        outbound = _with_latency(self.outbound, self._latency)
        inbound = _with_latency(self.inbound, self._latency)
        bridge.add_nic_to_tor_tap(outbound)
        bridge.add_tor_to_nic_tap(inbound)


def _with_latency(fn, latency_fn):
    """Wrap a tap callable, attaching the bridge's ``latency_for`` hook."""

    class _Tap:
        def __call__(self, packet):
            return fn(packet)

        @staticmethod
        def latency_for(packet):
            return latency_fn(packet)

    return _Tap()
