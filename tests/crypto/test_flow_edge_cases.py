"""Edge cases in the flow tap: DRAM-resident entries, latency hook,
nonce/IV plumbing, and oversized flow tables."""

import pytest

from repro.crypto import (
    EncryptedPayload,
    EncryptionTap,
    FlowKey,
    FlowTable,
    GcmContext,
)
from repro.net.packet import make_udp_packet


def make_flow_packet(payload=b"p" * 64, src_port=10, dst_port=20):
    return make_udp_packet(
        0, 1, "10.0.0.1", "10.0.0.2", "02:00:00:00:00:00",
        "02:00:00:00:00:01", src_port, dst_port, payload)


class TestLatencyHook:
    def test_no_flow_no_latency(self):
        tap = EncryptionTap()
        packet = make_flow_packet()
        assert tap._latency(packet) == 0.0

    def test_sram_flow_latency_is_engine_latency(self):
        tap = EncryptionTap()
        packet = make_flow_packet()
        tap.flows.setup_flow(FlowKey.of_packet(packet), bytes(16))
        expected = tap.engine.latency("aes-gcm-128",
                                      packet.payload_bytes)
        assert tap._latency(packet) == pytest.approx(expected)

    def test_dram_flow_pays_lookup(self):
        table = FlowTable(sram_capacity=0)
        tap = EncryptionTap(flow_table=table)
        packet = make_flow_packet()
        table.setup_flow(FlowKey.of_packet(packet), bytes(16))
        sram_equiv = tap.engine.latency("aes-gcm-128",
                                        packet.payload_bytes)
        assert tap._latency(packet) == pytest.approx(
            sram_equiv + table.dram_lookup_latency)


class TestOutboundInbound:
    def test_outbound_changes_wire_size(self):
        tap = EncryptionTap()
        packet = make_flow_packet(payload=b"z" * 100)
        tap.flows.setup_flow(FlowKey.of_packet(packet), bytes(16))
        before = packet.payload_bytes
        tap.outbound(packet)
        assert isinstance(packet.payload, EncryptedPayload)
        # GCM adds 12 B nonce + 16 B tag.
        assert packet.payload_bytes == before + 28

    def test_inbound_passthrough_for_foreign_encrypted_flow(self):
        """A packet encrypted for someone else's flow bridges through
        untouched (we cannot decrypt it)."""
        tap_owner = EncryptionTap()
        packet = make_flow_packet()
        tap_owner.flows.setup_flow(FlowKey.of_packet(packet), bytes(16))
        tap_owner.outbound(packet)

        stranger = EncryptionTap()  # no flow installed
        result = stranger.inbound(packet)
        assert result is packet
        assert isinstance(result.payload, EncryptedPayload)
        assert stranger.decrypted == 0

    def test_outbound_skips_non_bytes_payload(self):
        tap = EncryptionTap()
        packet = make_flow_packet()
        tap.flows.setup_flow(FlowKey.of_packet(packet), bytes(16))
        packet.payload = {"opaque": True}
        packet.payload_bytes = 64
        tap.outbound(packet)
        assert packet.payload == {"opaque": True}
        assert tap.encrypted == 0

    def test_distinct_nonces_produce_distinct_ciphertexts(self):
        tap = EncryptionTap()
        key = FlowKey("10.0.0.1", "10.0.0.2", 10, 20)
        tap.flows.setup_flow(key, bytes(16))
        ct = set()
        for _ in range(5):
            packet = make_flow_packet(payload=b"same plaintext")
            tap.outbound(packet)
            ct.add(bytes(packet.payload.ciphertext))
        assert len(ct) == 5

    def test_cbc_suite_roundtrip_through_tap(self):
        tap = EncryptionTap()
        packet = make_flow_packet(payload=b"cbc payload " * 8)
        key = FlowKey.of_packet(packet)
        tap.flows.setup_flow(key, bytes(16), mac_key=b"m",
                             suite="aes-cbc-128-sha1")
        tap.outbound(packet)
        assert packet.payload.suite == "aes-cbc-128-sha1"
        result = tap.inbound(packet)
        assert result.payload == b"cbc payload " * 8

    def test_cbc_wrong_enc_key_dropped(self):
        """An authentic CBC packet that does not unpad under the flow's
        encryption key is dropped, not raised."""
        tap = EncryptionTap()
        packet = make_flow_packet(payload=b"cbc payload " * 8)
        entry = tap.flows.setup_flow(FlowKey.of_packet(packet), bytes(16),
                                     mac_key=b"m", suite="aes-cbc-128-sha1")
        tap.outbound(packet)
        entry.key = bytes(range(16))
        assert tap.inbound(packet) is None
        assert tap.auth_failures == 1

    def test_unexpected_cipher_error_propagates(self, monkeypatch):
        """Only failed checks on the packet count as auth failures; a
        fault inside the cipher must surface, not drop the packet."""
        tap = EncryptionTap()
        packet = make_flow_packet()
        tap.flows.setup_flow(FlowKey.of_packet(packet), bytes(16))
        tap.outbound(packet)

        def broken(*_args):
            raise IndexError("table lookup out of range")

        monkeypatch.setattr(GcmContext, "decrypt", broken)
        with pytest.raises(IndexError):
            tap.inbound(packet)
        assert tap.auth_failures == 0


class TestFlowEntryState:
    def test_gcm_context_reused_until_rekey(self):
        table = FlowTable()
        entry = table.setup_flow(FlowKey("10.0.0.1", "10.0.0.2", 1, 2),
                                 bytes(16))
        context = entry.gcm
        assert entry.gcm is context
        entry.key = bytes(range(16))
        assert entry.gcm is not context

    def test_nonce_counter_exhaustion_raises(self):
        """A wrapped 32-bit counter would reuse nonce 1 under the same
        key: the tap sends the last counter value, then refuses."""
        tap = EncryptionTap()
        last, spent = make_flow_packet(), make_flow_packet()
        entry = tap.flows.setup_flow(FlowKey.of_packet(last), bytes(16))
        entry.counter = 0xFFFFFFFE
        tap.outbound(last)
        assert last.payload.nonce[-4:] == b"\xff\xff\xff\xff"
        assert entry.counter == 0xFFFFFFFF
        with pytest.raises(OverflowError):
            tap.outbound(spent)
        assert spent.payload == b"p" * 64
        assert tap.encrypted == 1


class TestFlowKey:
    def test_of_packet_requires_udp(self):
        from repro.net.packet import EthernetHeader, Packet
        bare = Packet(eth=EthernetHeader("02:00:00:00:00:00",
                                         "02:00:00:00:00:01"),
                      payload=b"x")
        assert FlowKey.of_packet(bare) is None

    def test_reversed_is_involution(self):
        key = FlowKey("10.0.0.1", "10.0.0.2", 10, 20)
        assert key.reversed().reversed() == key
