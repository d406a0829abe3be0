"""Tests for the LTL protocol engine: reliability, ordering, flow control."""

import pytest

from repro.ltl import (
    DirectTransport,
    FaultModel,
    LtlConfig,
    LtlEngine,
    connect_pair,
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


class TestCleanPath:
    def test_single_message_delivered(self):
        env = Environment()
        _t, a, b, conn_ab, _ = make_pair(env)
        got = []
        b.on_message = lambda c, p, n: got.append((p, n))
        a.send_message(conn_ab, b"hello", 5)
        env.run(until=1e-3)
        assert got == [(b"hello", 5)]

    def test_large_message_fragmented_and_reassembled(self):
        env = Environment()
        _t, a, b, conn_ab, _ = make_pair(env)
        got = []
        b.on_message = lambda c, p, n: got.append((p, n))
        payload = bytes(range(256)) * 20  # 5120 B > MTU
        a.send_message(conn_ab, payload, len(payload))
        env.run(until=1e-3)
        assert got == [(payload, len(payload))]
        assert a.stats.frames_sent >= 4  # fragmented

    def test_bidirectional_connections(self):
        env = Environment()
        _t, a, b, conn_ab, conn_ba = make_pair(env)
        got_a, got_b = [], []
        a.on_message = lambda c, p, n: got_a.append(p)
        b.on_message = lambda c, p, n: got_b.append(p)
        a.send_message(conn_ab, b"to-b", 4)
        b.send_message(conn_ba, b"to-a", 4)
        env.run(until=1e-3)
        assert got_a == [b"to-a"] and got_b == [b"to-b"]

    def test_ordering_across_messages(self):
        env = Environment()
        _t, a, b, conn_ab, _ = make_pair(env)
        got = []
        b.on_message = lambda c, p, n: got.append(p)
        for i in range(20):
            a.send_message(conn_ab, i, 100)
        env.run(until=5e-3)
        assert got == list(range(20))

    def test_rtt_samples_recorded(self):
        env = Environment()
        _t, a, b, conn_ab, _ = make_pair(env, delay=2e-6)
        b.on_message = lambda c, p, n: None
        a.send_message(conn_ab, b"x", 1)
        env.run(until=1e-3)
        samples = a.rtt_samples()
        assert len(samples) == 1
        # RTT >= 2 * transport delay.
        assert samples[0] >= 4e-6

    def test_opaque_payload_single_fragment(self):
        env = Environment()
        _t, a, b, conn_ab, _ = make_pair(env)
        got = []
        b.on_message = lambda c, p, n: got.append((p, n))
        marker = {"kind": "opaque"}
        a.send_message(conn_ab, marker, 200)
        env.run(until=1e-3)
        assert got == [(marker, 200)]

    def test_ack_bookkeeping(self):
        env = Environment()
        _t, a, b, conn_ab, _ = make_pair(env)
        b.on_message = lambda c, p, n: None
        a.send_message(conn_ab, b"x" * 3000, 3000)
        env.run(until=1e-3)
        assert a.stats.acks_received == b.stats.acks_sent
        state = a.send_table.lookup(conn_ab)
        assert state.in_flight == 0


class TestReliability:
    def test_survives_heavy_drops(self):
        env = Environment()
        _t, a, b, conn_ab, _ = make_pair(
            env, faults=FaultModel(drop_probability=0.3))
        got = []
        b.on_message = lambda c, p, n: got.append(p)
        for i in range(40):
            a.send_message(conn_ab, f"m{i}".encode(), 64)
        env.run(until=0.2)
        assert got == [f"m{i}".encode() for i in range(40)]
        assert a.stats.retransmissions > 0

    def test_survives_reordering_with_nacks(self):
        env = Environment()
        _t, a, b, conn_ab, _ = make_pair(
            env, faults=FaultModel(reorder_probability=0.3))
        got = []
        b.on_message = lambda c, p, n: got.append(p)
        for i in range(40):
            a.send_message(conn_ab, i, 64)
        env.run(until=0.2)
        assert got == list(range(40))
        assert b.stats.nacks_sent > 0 or b.stats.out_of_order == 0

    def test_duplicates_dropped(self):
        env = Environment()
        _t, a, b, conn_ab, _ = make_pair(
            env, faults=FaultModel(duplicate_probability=0.5))
        got = []
        b.on_message = lambda c, p, n: got.append(p)
        for i in range(30):
            a.send_message(conn_ab, i, 64)
        env.run(until=0.2)
        assert got == list(range(30))
        assert b.stats.duplicates_dropped > 0

    def test_all_faults_combined_exactly_once_in_order(self):
        env = Environment()
        _t, a, b, conn_ab, _ = make_pair(
            env, faults=FaultModel(drop_probability=0.15,
                                   reorder_probability=0.15,
                                   duplicate_probability=0.1))
        got = []
        b.on_message = lambda c, p, n: got.append(p)
        payload = bytes(1000)
        for i in range(30):
            a.send_message(conn_ab, i, 3000)  # multi-fragment too
        env.run(until=0.5)
        assert got == list(range(30))

    def test_timeout_drives_retransmission(self):
        """Total blackout then recovery: the 50 us timer resends."""
        env = Environment()
        transport = DirectTransport(env, delay=1e-6, faults=FaultModel(
            drop_probability=1.0))
        config = LtlConfig(max_consecutive_timeouts=1000)
        a = LtlEngine(env, 0, config=config)
        b = LtlEngine(env, 1, config=config)
        transport.register(a)
        transport.register(b)
        conn_ab, _ = connect_pair(a, b)
        got = []
        b.on_message = lambda c, p, n: got.append(p)
        a.send_message(conn_ab, b"persist", 7)
        env.run(until=0.4e-3)
        assert got == []
        assert a.stats.timeouts > 0
        transport.faults.drop_probability = 0.0  # network heals
        env.run(until=1e-3)
        assert got == [b"persist"]

    def test_connection_failure_detection(self):
        """Persistent timeouts identify failing nodes quickly."""
        env = Environment()
        transport = DirectTransport(env, delay=1e-6, faults=FaultModel(
            drop_probability=1.0))
        config = LtlConfig(max_consecutive_timeouts=4)
        a = LtlEngine(env, 0, config=config)
        b = LtlEngine(env, 1, config=config)
        transport.register(a)
        transport.register(b)
        conn_ab, _ = connect_pair(a, b)
        failures = []
        a.on_connection_failed = lambda cid, host: failures.append(
            (cid, host, env.now))
        a.send_message(conn_ab, b"x", 1)
        env.run(until=10e-3)
        assert failures and failures[0][1] == 1
        # Detection happens within ~max_timeouts * (timeout + slack).
        assert failures[0][2] < 1e-3
        with pytest.raises(RuntimeError):
            a.send_message(conn_ab, b"after-failure", 1)


class TestWindow:
    def test_window_limits_in_flight(self):
        env = Environment()
        config = LtlConfig(window_frames=4)
        # Slow transport so the window fills.
        transport = DirectTransport(env, delay=100e-6)
        a = LtlEngine(env, 0, config=config)
        b = LtlEngine(env, 1, config=config)
        transport.register(a)
        transport.register(b)
        conn_ab, _ = connect_pair(a, b)
        b.on_message = lambda c, p, n: None
        max_in_flight = []

        for i in range(20):
            a.send_message(conn_ab, i, 64)

        def monitor(env):
            state = a.send_table.lookup(conn_ab)
            for _ in range(200):
                max_in_flight.append(state.in_flight)
                yield env.timeout(10e-6)

        env.process(monitor(env))
        env.run(until=0.1)
        assert max(max_in_flight) <= 4

    def test_everything_delivered_despite_small_window(self):
        env = Environment()
        config = LtlConfig(window_frames=2)
        transport = DirectTransport(env, delay=10e-6)
        a = LtlEngine(env, 0, config=config)
        b = LtlEngine(env, 1, config=config)
        transport.register(a)
        transport.register(b)
        conn_ab, _ = connect_pair(a, b)
        got = []
        b.on_message = lambda c, p, n: got.append(p)
        for i in range(15):
            a.send_message(conn_ab, i, 64)
        env.run(until=0.1)
        assert got == list(range(15))


class TestRateLimiting:
    def test_connection_teardown(self):
        env = Environment()
        _t, a, b, conn_ab, conn_ba = make_pair(env)
        a.close_send_connection(conn_ab)
        with pytest.raises(Exception):
            a.send_message(conn_ab, b"x", 1)


class TestIdleTimerParking:
    def test_idle_engines_do_not_poll(self):
        """The retransmit timer parks while nothing is unacked.

        An idle pair used to burn one timer event per ``timer_period`` per
        engine forever; a long idle stretch must now cost O(1) events.
        """
        env = Environment()
        _t, a, b, conn_ab, _ = make_pair(env)
        a.send_message(conn_ab, b"warmup", 6)
        env.run(until=1e-3)
        busy_events = env.events_processed
        env.run(until=1.0)  # ~1 simulated second of nothing happening
        idle_events = env.events_processed - busy_events
        period_ticks = 1.0 / a.config.timer_period
        assert idle_events < period_ticks / 100

    def test_timer_wakes_for_retransmission(self):
        """Parking must not break loss recovery: a frame dropped on an
        otherwise-idle connection is still retransmitted and delivered."""
        env = Environment()
        faults = FaultModel(drop_probability=1.0)
        transport, a, b, conn_ab, _ = make_pair(env, faults=faults)
        got = []
        b.on_message = lambda c, p, n: got.append(p)
        a.send_message(conn_ab, b"lost", 4)
        env.run(until=5 * a.config.retransmit_timeout)
        assert got == []  # everything dropped so far
        transport.faults.drop_probability = 0.0
        env.run(until=env.now + 1e-3)
        assert got == [b"lost"]
        assert a.stats.retransmissions >= 1
