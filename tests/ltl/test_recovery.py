"""Tests for LTL's fault-recovery hardening: frame checksums, failed-
connection reconnect, gray-failure early warning, bounded reorder
buffer, and narrowed handler exceptions."""

from dataclasses import replace as dc_replace

import pytest

from repro.ltl import (
    DirectTransport,
    FaultModel,
    LtlConfig,
    LtlEngine,
    connect_pair,
    make_data_frame,
)
from repro.sim import Environment


def make_pair(env, delay=1e-6, faults=None, config=None):
    transport = DirectTransport(env, delay=delay, faults=faults)
    a = LtlEngine(env, host_index=0, config=config)
    b = LtlEngine(env, host_index=1, config=config)
    transport.register(a)
    transport.register(b)
    conn_ab, conn_ba = connect_pair(a, b)
    return transport, a, b, conn_ab, conn_ba


class CorruptingTransport(DirectTransport):
    """Corrupts the first ``n`` DATA frames it carries (wire bit-flips)."""

    def __init__(self, env, n=1, **kwargs):
        super().__init__(env, **kwargs)
        self.to_corrupt = n

    def send_frame(self, dst_host, frame):
        if self.to_corrupt > 0 and frame.is_data:
            self.to_corrupt -= 1
            frame = dc_replace(frame,
                               checksum=(frame.checksum or 0) ^ 0xBAD)
        super().send_frame(dst_host, frame)


class TestChecksums:
    def test_corrupt_frame_dropped_then_recovered(self):
        env = Environment()
        transport = CorruptingTransport(env, n=1)
        a = LtlEngine(env, 0)
        b = LtlEngine(env, 1)
        transport.register(a)
        transport.register(b)
        conn_ab, _ = connect_pair(a, b)
        got = []
        b.on_message = lambda c, p, n: got.append(p)
        a.send_message(conn_ab, b"fragile", 7)
        env.run(until=2e-3)
        # The corrupted copy was dropped on receive, then the sender's
        # retransmit timer recovered the message.
        assert b.stats.corrupt_dropped == 1
        assert a.stats.retransmissions >= 1
        assert got == [b"fragile"]



class TestReconnect:
    def test_failed_connection_reestablishes(self):
        """A blackout long enough to declare failure, then the peer
        comes back: reconnect probes re-establish the connection and the
        queued traffic drains — no permanent failed state."""
        env = Environment()
        transport = DirectTransport(env, delay=1e-6, faults=FaultModel(
            drop_probability=1.0))
        config = LtlConfig(max_consecutive_timeouts=4)
        a = LtlEngine(env, 0, config=config)
        b = LtlEngine(env, 1, config=config)
        transport.register(a)
        transport.register(b)
        conn_ab, _ = connect_pair(a, b)
        failures, recoveries, got = [], [], []
        a.on_connection_failed = lambda cid, host: failures.append(cid)
        a.on_connection_recovered = lambda cid, host: recoveries.append(
            cid)
        b.on_message = lambda c, p, n: got.append(p)
        a.send_message(conn_ab, b"through-the-storm", 17)
        env.run(until=2e-3)
        assert failures == [conn_ab]
        assert a.send_table.lookup(conn_ab).failed
        transport.faults.drop_probability = 0.0  # peer comes back
        env.run(until=30e-3)
        assert recoveries == [conn_ab]
        assert not a.send_table.lookup(conn_ab).failed
        assert a.stats.reconnect_probes >= 1
        assert a.stats.connections_recovered == 1
        assert got == [b"through-the-storm"]
        # And the revived connection carries new traffic.
        a.send_message(conn_ab, b"fresh", 5)
        env.run(until=31e-3)
        assert got == [b"through-the-storm", b"fresh"]


class TestGrayWarning:
    def test_degraded_fires_before_failure(self):
        env = Environment()
        transport = DirectTransport(env, delay=1e-6, faults=FaultModel(
            drop_probability=1.0))
        config = LtlConfig(max_consecutive_timeouts=8,
                           degraded_timeouts=3)
        a = LtlEngine(env, 0, config=config)
        b = LtlEngine(env, 1, config=config)
        transport.register(a)
        transport.register(b)
        conn_ab, _ = connect_pair(a, b)
        timeline = []
        a.on_connection_degraded = lambda cid, host: timeline.append(
            ("degraded", cid, env.now))
        a.on_connection_failed = lambda cid, host: timeline.append(
            ("failed", cid, env.now))
        a.send_message(conn_ab, b"x", 1)
        env.run(until=5e-3)
        kinds = [k for k, _, _ in timeline]
        assert kinds == ["degraded", "failed"]
        # The early warning fires only once per episode.
        assert kinds.count("degraded") == 1


class TestReorderBuffer:
    def _recv_state(self, a, b, conn_ab):
        return b.recv_table.lookup(
            a.send_table.lookup(conn_ab).remote_connection_id)

    def test_buffer_bounded_and_drops_counted(self):
        env = Environment()
        config = LtlConfig(reorder_buffer_frames=4)
        _t, a, b, conn_ab, _ = make_pair(env, config=config)
        state = self._recv_state(a, b, conn_ab)
        recv_id = state.connection_id
        # Blast 10 out-of-order frames (seq 1.. with seq 0 missing).
        for seq in range(1, 11):
            b.receive_frame(make_data_frame(
                connection_id=recv_id, seq=seq, message_id=seq,
                fragment=0, total_fragments=1, payload=b"z",
                payload_bytes=1))
        env.run(until=1e-3)
        assert len(state.reorder_buffer) <= 4
        assert b.stats.reorder_drops == 6
        # The gap was NACKed exactly once while outstanding.
        assert b.stats.nacks_sent == 1



class TestNarrowedHandlers:
    """Stale frames for unknown connections are ignored; real errors in
    user callbacks are no longer swallowed."""

    def test_stale_frames_ignored(self):
        env = Environment()
        _t, a, b, conn_ab, _ = make_pair(env)
        bogus = 1234
        from repro.ltl import make_ack, make_nack
        b.receive_frame(make_data_frame(
            connection_id=bogus, seq=0, message_id=0, fragment=0,
            total_fragments=1, payload=b"z", payload_bytes=1))
        a.receive_frame(make_ack(bogus, ack_seq=0))
        a.receive_frame(make_nack(bogus, (0, 1)))
        env.run(until=1e-3)  # no exception: lookups miss, frames dropped
        assert b.stats.messages_delivered == 0

    def test_callback_errors_propagate(self):
        env = Environment()
        _t, a, b, conn_ab, _ = make_pair(env)

        def exploding(c, p, n):
            raise ValueError("role crashed")

        b.on_message = exploding
        a.send_message(conn_ab, b"boom", 4)
        with pytest.raises(ValueError, match="role crashed"):
            env.run(until=1e-3)
