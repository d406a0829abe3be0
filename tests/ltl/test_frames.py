"""Tests for the LTL frame format and serialization."""

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


class TestHeaderSerialization:
    def test_roundtrip(self):
        frame = make_data_frame(connection_id=77, seq=1234,
                                message_id=42, fragment=1,
                                total_fragments=3, payload=b"zz",
                                payload_bytes=2)
        decoded = LtlFrame.header_from_bytes(frame.header_to_bytes())
        assert decoded.connection_id == 77
        assert decoded.seq == 1234
        assert decoded.message_id == 42
        assert decoded.fragment == 1
        assert decoded.total_fragments == 3
        assert decoded.payload_bytes == 2
        assert decoded.frame_type == TYPE_DATA

    def test_bad_magic_rejected(self):
        raw = bytearray(make_ack(0, 1).header_to_bytes())
        raw[0] ^= 0xFF
        with pytest.raises(ValueError):
            LtlFrame.header_from_bytes(bytes(raw))

    def test_truncated_rejected(self):
        with pytest.raises(ValueError):
            LtlFrame.header_from_bytes(b"\x00" * 4)


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
