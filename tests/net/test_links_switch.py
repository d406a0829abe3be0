"""Tests for transmit ports (serialization, PFC) and switches (ECN, PFC)."""

import pytest

from repro.net.latency import idle
from repro.net.links import Port, propagation_delay
from repro.net.packet import (
    EthernetHeader,
    Ipv4Header,
    Packet,
    TrafficClass,
)
from repro.net.switch import EcnConfig, PfcConfig, Switch
from repro.sim import Environment, RandomStreams


def make_packet(payload_bytes=100, tc=TrafficClass.BEST_EFFORT,
                dst_index=0, with_ip=False):
    from repro.net.addressing import mac_address
    eth = EthernetHeader(dst_mac=mac_address(dst_index),
                         src_mac=mac_address(999), priority=tc)
    ip = Ipv4Header(src_ip="10.0.0.1", dst_ip="10.0.0.2") if with_ip \
        else None
    return Packet(eth=eth, ip=ip, payload=b"", payload_bytes=payload_bytes)


class TestPropagation:
    def test_delay_scales_with_distance(self):
        assert propagation_delay(200.0) == pytest.approx(1e-6)

    def test_zero_distance(self):
        assert propagation_delay(0.0) == 0.0

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            propagation_delay(-1.0)


class TestPort:
    def test_serialization_delay_applied(self):
        env = Environment()
        got = []
        port = Port(env, "p", rate_bps=40e9, distance_m=0.0,
                    deliver=lambda p: got.append(env.now))
        packet = make_packet(payload_bytes=1500 - 64)
        port.enqueue(packet)
        env.run()
        # wire_bytes * 8 / rate
        assert got[0] == pytest.approx(packet.wire_bytes * 8 / 40e9)

    def test_fifo_within_class(self):
        env = Environment()
        got = []
        port = Port(env, "p", rate_bps=40e9, distance_m=0.0,
                    deliver=lambda p: got.append(p.payload_bytes))
        for size in (100, 200, 300):
            port.enqueue(make_packet(payload_bytes=size))
        env.run()
        assert got == [100, 200, 300]

    def test_strict_priority_between_classes(self):
        env = Environment()
        got = []
        port = Port(env, "p", rate_bps=40e9, distance_m=0.0,
                    deliver=lambda p: got.append(p.traffic_class))
        # Both classes queued at once: the lossless (higher) class must
        # be drained first, then the best-effort backlog.
        port.enqueue(make_packet(payload_bytes=100))
        port.enqueue(make_packet(payload_bytes=100))
        port.enqueue(make_packet(payload_bytes=100,
                                 tc=TrafficClass.LOSSLESS))
        env.run()
        assert got == [TrafficClass.LOSSLESS, TrafficClass.BEST_EFFORT,
                       TrafficClass.BEST_EFFORT]

    def test_pause_blocks_class(self):
        env = Environment()
        got = []
        port = Port(env, "p", rate_bps=40e9, distance_m=0.0,
                    deliver=lambda p: got.append(
                        (env.now, p.traffic_class)))
        port.pause(TrafficClass.LOSSLESS)
        port.enqueue(make_packet(tc=TrafficClass.LOSSLESS))
        port.enqueue(make_packet(tc=TrafficClass.BEST_EFFORT))
        env.run(until=1e-3)
        assert [tc for _t, tc in got] == [TrafficClass.BEST_EFFORT]
        port.resume(TrafficClass.LOSSLESS)
        env.run(until=2e-3)
        assert [tc for _t, tc in got][-1] == TrafficClass.LOSSLESS

    def test_tail_drop_best_effort(self):
        env = Environment()
        port = Port(env, "p", rate_bps=1e3,  # very slow: queue builds
                    distance_m=0.0, deliver=lambda p: None,
                    queue_capacity_bytes=300)
        accepted = [port.enqueue(make_packet(payload_bytes=150))
                    for _ in range(5)]
        assert accepted[0] is True
        assert not all(accepted)
        assert port.stats.dropped > 0

    def test_lossless_never_tail_dropped(self):
        env = Environment()
        port = Port(env, "p", rate_bps=1e3, distance_m=0.0,
                    deliver=lambda p: None, queue_capacity_bytes=300)
        accepted = [port.enqueue(make_packet(
            payload_bytes=150, tc=TrafficClass.LOSSLESS))
            for _ in range(5)]
        assert all(accepted)


class TestEcnConfig:
    def test_no_marking_below_kmin(self):
        ecn = EcnConfig(kmin_bytes=1000, kmax_bytes=2000, pmax=0.5)
        assert ecn.mark_probability(500) == 0.0

    def test_full_marking_above_kmax(self):
        ecn = EcnConfig(kmin_bytes=1000, kmax_bytes=2000, pmax=0.5)
        assert ecn.mark_probability(3000) == 1.0

    def test_linear_ramp(self):
        ecn = EcnConfig(kmin_bytes=1000, kmax_bytes=2000, pmax=0.5)
        assert ecn.mark_probability(1500) == pytest.approx(0.25)


class TestPfcConfig:
    def test_xon_below_xoff_enforced(self):
        with pytest.raises(ValueError):
            PfcConfig(xoff_bytes=100, xon_bytes=200)


class TestSwitch:
    def _switch(self, env, **kwargs):
        switch = Switch(env, "sw", "tor", forwarding_latency=0.5e-6,
                        rng=RandomStreams(seed=0).stream("switch:sw"),
                        background=idle(), **kwargs)
        return switch

    def test_forwards_to_routed_port(self):
        env = Environment()
        switch = self._switch(env)
        got = []
        port = Port(env, "out", rate_bps=40e9, distance_m=0.0,
                    deliver=lambda p: got.append(p))
        switch.add_port("out", port)
        switch.set_router(lambda sw, pkt: "out")
        switch.receive(make_packet())
        env.run()
        assert len(got) == 1
        assert switch.stats.forwarded == 1

    def test_forwarding_latency_applied(self):
        env = Environment()
        switch = self._switch(env)
        got = []
        port = Port(env, "out", rate_bps=40e9, distance_m=0.0,
                    deliver=lambda p: got.append(env.now))
        switch.add_port("out", port)
        switch.set_router(lambda sw, pkt: "out")
        packet = make_packet()
        switch.receive(packet)
        env.run()
        assert got[0] == pytest.approx(
            0.5e-6 + packet.wire_bytes * 8 / 40e9)

    def test_routing_failure_counted(self):
        env = Environment()
        switch = self._switch(env)
        switch.set_router(lambda sw, pkt: "nonexistent")
        switch.receive(make_packet())
        env.run()
        assert switch.stats.routing_failures == 1

    def test_no_router_counted(self):
        env = Environment()
        switch = self._switch(env)
        switch.receive(make_packet())
        env.run()
        assert switch.stats.routing_failures == 1

    def test_hop_count_incremented(self):
        env = Environment()
        switch = self._switch(env)
        switch.set_router(lambda sw, pkt: None)
        packet = make_packet()
        switch.receive(packet)
        env.run()
        assert packet.hops == 1

    def test_duplicate_port_key_rejected(self):
        env = Environment()
        switch = self._switch(env)
        port = Port(env, "out", rate_bps=40e9)
        switch.add_port("out", port)
        with pytest.raises(ValueError):
            switch.add_port("out", port)

    def test_ecn_marks_at_deep_queue(self):
        env = Environment()
        switch = self._switch(
            env, ecn=EcnConfig(kmin_bytes=100, kmax_bytes=200, pmax=1.0))
        # A slow port so the queue stays deep.
        port = Port(env, "out", rate_bps=1e6, distance_m=0.0,
                    deliver=lambda p: None)
        switch.add_port("out", port)
        switch.set_router(lambda sw, pkt: "out")
        for _ in range(40):
            switch.receive(make_packet(payload_bytes=500,
                                       tc=TrafficClass.LOSSLESS,
                                       with_ip=True))
        env.run(until=0.5)
        assert switch.stats.ecn_marked > 0

    def test_pfc_pauses_upstream_on_congestion(self):
        env = Environment()
        switch = self._switch(
            env, pfc=PfcConfig(xoff_bytes=2000, xon_bytes=500))
        slow = Port(env, "out", rate_bps=1e6, distance_m=0.0,
                    deliver=lambda p: None)
        switch.add_port("out", slow)
        switch.set_router(lambda sw, pkt: "out")
        upstream = Port(env, "up", rate_bps=40e9, distance_m=0.0,
                        deliver=switch.receive)
        switch.register_upstream("neighbor", upstream)
        for _ in range(10):
            switch.receive(make_packet(payload_bytes=1000,
                                       tc=TrafficClass.LOSSLESS))
        env.run(until=0.05)
        assert switch.stats.pfc_pause_sent >= 1
        # Eventually the queue drains below xon and resume is sent.
        env.run(until=60.0)
        assert switch.stats.pfc_resume_sent >= 1
        assert not upstream.is_paused(TrafficClass.LOSSLESS)


    def test_remove_port_keeps_a_pause_another_port_holds(self):
        env = Environment()
        switch = self._switch(
            env, pfc=PfcConfig(xoff_bytes=2000, xon_bytes=500))
        for key in ("a", "b"):
            switch.add_port(key, Port(env, key, rate_bps=1e6,
                                      distance_m=0.0))
        switch.set_router(lambda sw, pkt: pkt.payload)
        upstream = Port(env, "up", rate_bps=40e9)
        switch.register_upstream("neighbor", upstream)
        for key in ("a", "b"):
            for _ in range(3):
                packet = make_packet(payload_bytes=1000,
                                     tc=TrafficClass.LOSSLESS)
                packet.payload = key
                switch.receive(packet)
        env.run(until=1e-5)
        assert switch.stats.pfc_pause_sent == 2
        removed = switch.remove_port("a")
        assert removed.on_transmit is None
        assert upstream.is_paused(TrafficClass.LOSSLESS)
        switch.remove_port("b")
        assert switch.stats.pfc_resume_sent == 2
        assert not upstream.is_paused(TrafficClass.LOSSLESS)


class TestQueuedBytesAccounting:
    def test_running_total_tracks_per_class_dicts(self):
        """The O(1) running total must equal the per-class sums at every
        point of the drain, including across enqueues and transmits."""
        env = Environment()
        checked = []

        def invariant(_packet=None):
            assert port.queued_bytes_total == sum(
                port.queued_bytes(tc) for tc in TrafficClass.ALL)
            checked.append(port.queued_bytes_total)

        # deliver runs inside every transmit completion (zero distance).
        port = Port(env, "p", rate_bps=40e9, distance_m=0.0,
                    deliver=invariant)
        invariant()
        for size, tc in ((100, TrafficClass.BEST_EFFORT),
                         (500, TrafficClass.LOSSLESS),
                         (64, TrafficClass.BEST_EFFORT),
                         (1400, TrafficClass.LOSSLESS)):
            port.enqueue(make_packet(payload_bytes=size, tc=tc))
            invariant()
        env.run()
        invariant()
        assert len(env) == 0
        assert len(checked) == 1 + 4 + 4 + 1
        assert port.queued_bytes_total == 0

    def test_running_total_unchanged_by_drop(self):
        env = Environment()
        port = Port(env, "p", rate_bps=40e9, distance_m=0.0,
                    deliver=lambda p: None, queue_capacity_bytes=200)
        assert port.enqueue(make_packet(payload_bytes=50))
        before = port.queued_bytes_total
        assert not port.enqueue(make_packet(payload_bytes=5000))
        assert port.queued_bytes_total == before
        assert port.queued_bytes_total == sum(
            port.queued_bytes(tc) for tc in TrafficClass.ALL)


class TestDropAbandonsSpan:
    def test_tail_drop_abandons_unprotected_span(self):
        from repro.trace import TraceRecorder
        env = Environment()
        recorder = TraceRecorder()
        port = Port(env, "p", rate_bps=40e9, distance_m=0.0,
                    deliver=lambda p: None, queue_capacity_bytes=200)
        assert port.enqueue(make_packet(payload_bytes=100))
        doomed = make_packet(payload_bytes=5000)
        doomed.trace = recorder.start(env.now)
        assert not port.enqueue(doomed)
        # The drop is terminal for an unprotected request: the recorder
        # must count the span instead of leaking it open.
        assert recorder.abandoned == 1
        assert doomed.trace.closed

    def test_tail_drop_spares_protected_span(self):
        from repro.trace import TraceRecorder
        env = Environment()
        recorder = TraceRecorder()
        port = Port(env, "p", rate_bps=40e9, distance_m=0.0,
                    deliver=lambda p: None, queue_capacity_bytes=200)
        assert port.enqueue(make_packet(payload_bytes=100))
        doomed = make_packet(payload_bytes=5000)
        doomed.trace = recorder.start(env.now)
        # In LTL custody the frame will be retransmitted: the drop is
        # recoverable and must NOT close the span.
        doomed.trace.protected = True
        assert not port.enqueue(doomed)
        assert recorder.abandoned == 0
        assert not doomed.trace.closed
