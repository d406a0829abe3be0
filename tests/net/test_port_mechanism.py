"""The packet-granular port's mechanism: how many kernel entries a packet
costs, and the same-instant rules that keep it equal to the per-event
reference.  Tests of behaviour both ports share run on both."""

import pytest

from repro.net.latency import idle
from repro.net.links import Port
from repro.net.packet import TrafficClass
from repro.net.switch import PfcConfig, Switch
from repro.sim import Environment, RandomStreams

from .reference_port import Port as ReferencePort
from .test_links_switch import make_packet

BOTH = pytest.mark.parametrize("port_cls", [Port, ReferencePort],
                               ids=["port", "reference"])


class TestKernelEntries:
    def test_idle_port_takes_one_entry_per_packet(self):
        env = Environment()
        got = []
        port = Port(env, "p", rate_bps=40e9, deliver=got.append)
        port.enqueue(make_packet())
        # Only the arrival at the far end is scheduled.
        assert len(env) == 1
        env.run()
        assert len(got) == 1 and env.events_processed == 1

    def test_backlogged_packet_takes_two(self):
        env = Environment()
        got = []
        port = Port(env, "p", rate_bps=40e9, deliver=got.append)
        port.enqueue(make_packet())
        env.run(until=1e-9)  # mid-serialization
        port.enqueue(make_packet())
        # The first packet's transmit finish joins its arrival.
        assert len(env) == 2
        env.run()
        # One entry for the first packet; its finish and the second
        # packet's arrival for the second.
        assert len(got) == 2 and env.events_processed == 3

    def test_resume_with_an_empty_queue_schedules_nothing(self):
        env = Environment()
        port = Port(env, "p", rate_bps=40e9, deliver=lambda p: None)
        port.pause(TrafficClass.LOSSLESS)
        port.resume(TrafficClass.LOSSLESS)
        assert len(env) == 0


@BOTH
class TestSameInstantPriority:
    def test_higher_class_in_the_launching_event_takes_the_wire(
            self, port_cls):
        env = Environment()
        got = []
        port = port_cls(env, "p", rate_bps=40e9,
                        deliver=lambda p: got.append(p.traffic_class))

        def burst():
            port.enqueue(make_packet(tc=TrafficClass.BEST_EFFORT))
            port.enqueue(make_packet(tc=TrafficClass.LOSSLESS))

        env.call_later(1e-6, burst)
        env.run()
        assert got == [TrafficClass.LOSSLESS, TrafficClass.BEST_EFFORT]

    def test_higher_class_from_a_later_event_queues_behind(self, port_cls):
        env = Environment()
        got = []
        port = port_cls(env, "p", rate_bps=40e9,
                        deliver=lambda p: got.append(p.traffic_class))

        def first():
            port.enqueue(make_packet(tc=TrafficClass.BEST_EFFORT))
            env.call_later(0.0, port.enqueue,
                           make_packet(tc=TrafficClass.LOSSLESS))

        env.call_later(1e-6, first)
        env.run()
        assert got == [TrafficClass.BEST_EFFORT, TrafficClass.LOSSLESS]


@BOTH
class TestPfcWithdrawal:
    def test_single_packet_above_xoff_withdraws_its_pause(self, port_cls):
        """One lossless packet larger than xoff asserts the pause on
        arrival; with nothing queued behind it, its own departure must
        still withdraw it."""
        env = Environment()
        switch = Switch(env, "sw", "tor", forwarding_latency=0.1e-6,
                        rng=RandomStreams(seed=0).stream("switch:sw"),
                        background=idle(),
                        pfc=PfcConfig(xoff_bytes=1000, xon_bytes=400))
        got = []
        switch.add_port("out", port_cls(env, "out", rate_bps=40e9,
                                        deliver=got.append))
        switch.set_router(lambda sw, pkt: "out")
        upstream = port_cls(env, "up", rate_bps=40e9)
        switch.register_upstream("n", upstream)
        switch.receive(make_packet(payload_bytes=1500,
                                   tc=TrafficClass.LOSSLESS))
        env.run(until=0.15e-6)
        assert upstream.is_paused(TrafficClass.LOSSLESS)
        env.run()
        assert len(got) == 1
        assert switch.stats.pfc_pause_sent == 1
        assert switch.stats.pfc_resume_sent == 1
        assert not upstream.is_paused(TrafficClass.LOSSLESS)
