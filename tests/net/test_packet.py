"""Tests for the packet/header models and their wire sizes."""

import pytest

from repro.net.packet import (
    ETHERNET_FCS_BYTES,
    ETHERNET_HEADER_BYTES,
    IPV4_HEADER_BYTES,
    MIN_FRAME_BYTES,
    UDP_HEADER_BYTES,
    EthernetHeader,
    Packet,
    TrafficClass,
    make_udp_packet,
)


class TestPacket:
    def _packet(self, payload=b"hello", tc=TrafficClass.BEST_EFFORT):
        return make_udp_packet(
            0, 1, "10.0.0.1", "10.0.0.2", "02:00:00:00:00:00",
            "02:00:00:00:00:01", 1000, 2000, payload, traffic_class=tc)

    def test_wire_bytes_includes_all_headers(self):
        packet = self._packet(payload=b"x" * 100)
        expected = (ETHERNET_HEADER_BYTES + ETHERNET_FCS_BYTES
                    + IPV4_HEADER_BYTES + UDP_HEADER_BYTES + 100)
        assert packet.wire_bytes == expected

    def test_minimum_frame_size_enforced(self):
        packet = self._packet(payload=b"")
        assert packet.wire_bytes == MIN_FRAME_BYTES

    def test_opaque_payload_requires_size(self):
        with pytest.raises(ValueError):
            Packet(eth=EthernetHeader("02:00:00:00:00:00",
                                      "02:00:00:00:00:01"),
                   payload=object())

    def test_opaque_payload_with_size(self):
        packet = Packet(
            eth=EthernetHeader("02:00:00:00:00:00", "02:00:00:00:00:01"),
            payload=object(), payload_bytes=500)
        assert packet.payload_bytes == 500

    def test_traffic_class_from_eth_priority(self):
        packet = self._packet(tc=TrafficClass.LOSSLESS)
        assert packet.traffic_class == TrafficClass.LOSSLESS

    def test_unique_packet_ids(self):
        ids = {self._packet().packet_id for _ in range(10)}
        assert len(ids) == 10


class TestTrafficClass:
    def test_lossless_detection(self):
        assert TrafficClass.is_lossless(TrafficClass.LOSSLESS)
        assert not TrafficClass.is_lossless(TrafficClass.BEST_EFFORT)

    def test_all_classes_distinct(self):
        assert len(set(TrafficClass.ALL)) == len(TrafficClass.ALL)
