"""Deadline primitives and their propagation through the stack."""

import pytest

from repro.ltl import LtlConfig, LtlEngine, DirectTransport, connect_pair
from repro.overload import (
    MAX_DEADLINE_US,
    NO_DEADLINE_US,
    Deadline,
    DeadlineStats,
    decode_deadline_us,
    encode_deadline_us,
    expires_at_of,
)
from repro.router.elastic_router import ElasticRouter
from repro.sim import Environment


class TestDeadline:
    def test_from_budget(self):
        d = Deadline.from_budget(now=2.0, budget=0.008)
        assert d.expires_at == pytest.approx(2.008)
        assert d.budget == pytest.approx(0.008)
        assert d.issued_at == pytest.approx(2.0)

    def test_nonpositive_budget_rejected(self):
        with pytest.raises(ValueError):
            Deadline.from_budget(now=0.0, budget=0.0)
        with pytest.raises(ValueError):
            Deadline.from_budget(now=0.0, budget=-1.0)

    def test_expiry_is_strict(self):
        d = Deadline.from_budget(now=0.0, budget=1.0)
        assert not d.expired(1.0)     # exactly at the deadline: still ok
        assert d.expired(1.0 + 1e-9)

    def test_expires_at_of_normalizes(self):
        d = Deadline.from_budget(now=0.0, budget=0.5)
        assert expires_at_of(d) == pytest.approx(0.5)
        assert expires_at_of(0.75) == pytest.approx(0.75)
        assert expires_at_of(None) is None


class TestWireEncoding:
    def test_none_is_zero(self):
        assert encode_deadline_us(None) == NO_DEADLINE_US
        assert decode_deadline_us(NO_DEADLINE_US) is None

    def test_round_trip_microseconds(self):
        expiry = 1.234567
        us = encode_deadline_us(expiry)
        assert decode_deadline_us(us) == pytest.approx(expiry, abs=1e-6)

    def test_tiny_deadline_stays_a_deadline(self):
        # Rounding to 0 would silently mean "no deadline" on the wire.
        assert encode_deadline_us(1e-9) == 1

    def test_saturates_at_u32(self):
        assert encode_deadline_us(1e9) == MAX_DEADLINE_US

    def test_stats_attribute_drops(self):
        stats = DeadlineStats()
        stats.drop("core_queue")
        stats.drop("core_queue")
        stats.drop("remote")
        assert stats.dropped == {"core_queue": 2, "remote": 1}
        assert stats.total == 3


def make_ltl_pair(env):
    transport = DirectTransport(env, delay=1e-6)
    a = LtlEngine(env, host_index=0, config=LtlConfig())
    b = LtlEngine(env, host_index=1, config=LtlConfig())
    transport.register(a)
    transport.register(b)
    conn_ab, _ = connect_pair(a, b)
    return a, b, conn_ab


class TestLtlPropagation:
    def test_deadline_rides_the_frame_header(self):
        env = Environment()
        a, b, conn = make_ltl_pair(env)
        got = []
        b.on_message = lambda c, p, n: got.append(p)
        a.send_message(conn, b"work", 4, deadline=1.0)
        env.run(until=1e-3)
        assert got == [b"work"]
        assert a.stats.deadline_expired_tx == 0
        assert b.stats.deadline_expired_rx == 0

    def test_expired_at_send_refused_before_seq(self):
        """Tx-side refusal happens before sequence assignment, so the
        go-back-N window stays gapless."""
        env = Environment()
        a, b, conn = make_ltl_pair(env)
        got = []
        b.on_message = lambda c, p, n: got.append(p)

        def driver():
            yield env.timeout(0.5)
            # Expired half a second ago.
            assert a.send_message(conn, b"late", 4, deadline=0.25) == -1
            # A live message right after still flows in order.
            a.send_message(conn, b"fresh", 5, deadline=1.0)

        env.process(driver())
        env.run(until=0.6)
        assert a.stats.deadline_expired_tx == 1
        assert got == [b"fresh"]

    def test_expired_in_flight_dropped_at_delivery(self):
        """A deadline that expires while the message crosses the wire is
        dropped at the receiver (still ACKed — the protocol is fine,
        the *work* is dead)."""
        env = Environment()
        transport = DirectTransport(env, delay=5e-4)  # slow wire
        a = LtlEngine(env, host_index=0, config=LtlConfig())
        b = LtlEngine(env, host_index=1, config=LtlConfig())
        transport.register(a)
        transport.register(b)
        conn, _ = connect_pair(a, b)
        got = []
        b.on_message = lambda c, p, n: got.append(p)
        # Expires in 0.1 ms; the wire takes 0.5 ms.
        a.send_message(conn, b"doomed", 6, deadline=1e-4)
        env.run(until=5e-3)
        assert got == []
        assert b.stats.deadline_expired_rx == 1
        # The sender saw the ACK: nothing left unacked, no failure.
        state = a.send_table.lookup(conn)
        assert not state.unacked


class TestRouterPropagation:
    def test_expired_message_dropped_at_delivery(self):
        env = Environment()
        router = ElasticRouter(env, name="er", num_ports=2)
        got = []
        router.set_endpoint(1, lambda msg: got.append(msg))

        def driver():
            yield env.timeout(1e-3)
            router.send(0, 1, payload=b"dead", length_bytes=64,
                        deadline=5e-4)
            router.send(0, 1, payload=b"live", length_bytes=64,
                        deadline=1.0)

        env.process(driver())
        env.run(until=2e-3)
        assert [m.payload for m in got] == [b"live"]
        assert router.stats.deadline_drops == 1


class TestRxDeadlineAbandonsSpan:
    def test_rx_expired_message_span_counted_by_recorder(self):
        """A traced message whose deadline expires in flight must close
        its span at the rx drop point — the recorder counts it instead
        of leaking an open span (and the residual gate staying honest)."""
        from repro.trace import TraceRecorder
        env = Environment()
        transport = DirectTransport(env, delay=5e-4)  # slow wire
        a = LtlEngine(env, host_index=0, config=LtlConfig())
        b = LtlEngine(env, host_index=1, config=LtlConfig())
        transport.register(a)
        transport.register(b)
        conn, _ = connect_pair(a, b)
        got = []
        b.on_message = lambda c, p, n: got.append(p)
        recorder = TraceRecorder()
        ctx = recorder.start(env.now)
        a.send_message(conn, b"doomed", 6, deadline=1e-4, trace=ctx)
        env.run(until=5e-3)
        assert got == []
        assert b.stats.deadline_expired_rx == 1
        assert recorder.abandoned == 1
        assert ctx.closed
