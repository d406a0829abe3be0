"""Tests for the LTL frame format."""

import pytest

from repro.ltl.frames import (
    LTL_HEADER_BYTES,
    TYPE_DATA,
    LtlFrame,
    make_ack,
    make_data_frame,
    make_nack,
    nack_range,
)


class TestDataFrames:
    def test_single_fragment_flags(self):
        frame = make_data_frame(1, 0, 0, 0, 1, b"x", 1)
        assert frame.is_first_fragment and frame.is_last_fragment

    def test_middle_fragment_flags(self):
        frame = make_data_frame(1, 5, 2, 1, 3, b"x", 1)
        assert not frame.is_first_fragment
        assert not frame.is_last_fragment

    def test_last_fragment_flag(self):
        frame = make_data_frame(1, 6, 2, 2, 3, b"x", 1)
        assert frame.is_last_fragment and not frame.is_first_fragment

    def test_wire_bytes_includes_header(self):
        frame = make_data_frame(1, 0, 0, 0, 1, b"x" * 100, 100)
        assert frame.wire_bytes == LTL_HEADER_BYTES + 100

    def test_payload_bytes_inferred_from_bytes(self):
        frame = LtlFrame(frame_type=TYPE_DATA, connection_id=0,
                         payload=b"abcd")
        assert frame.payload_bytes == 4

    def test_type_predicates(self):
        assert make_data_frame(0, 0, 0, 0, 1, b"", 0).is_data
        assert make_ack(0, 5).is_ack
        assert make_nack(0, (1, 2)).is_nack


class TestWireFormat:
    def test_header_is_34_bytes(self):
        # The reserved word at offset 26 keeps the header at 34 B, which
        # every frame size (and so every Fig. 10 latency) depends on.
        assert LTL_HEADER_BYTES == 34

    def test_checksums_are_pinned(self):
        # CRC-32 over the header with the reserved word packed as 0.
        assert make_data_frame(1, 5, 2, 1, 3, b"x", 1).checksum == \
            0xC8540FCB
        assert make_ack(3, 17).checksum == 0x3EA5BD82


class TestAckNack:
    def test_ack_carries_cumulative_seq(self):
        ack = make_ack(3, 17)
        assert ack.ack_seq == 17
        assert not ack.congestion_flag

    def test_ack_congestion_flag(self):
        assert make_ack(3, 17, congestion=True).congestion_flag

    def test_nack_range_roundtrip(self):
        nack = make_nack(9, (10, 14))
        assert nack_range(nack) == (10, 14)

    def test_nack_range_requires_nack(self):
        with pytest.raises(ValueError):
            nack_range(make_ack(0, 0))
