"""Additional switch/fabric edge cases: lossless traffic beyond queue
capacity, ECN end-to-end, multi-upstream PFC."""

import pytest

from repro.net import (
    DatacenterFabric,
    EcnConfig,
    PfcConfig,
    TopologyConfig,
    TrafficClass,
    idle,
)
from repro.net.latency import idle as idle_model
from repro.net.links import Port
from repro.net.switch import Switch
from repro.sim import Environment, RandomStreams

from .test_links_switch import make_packet


class TestLosslessOverflow:
    def test_lossless_beyond_queue_capacity_all_accepted(self):
        """Lossless traffic beyond even the physical queue (PFC watermark
        set absurdly high) is all accepted: back-pressure is PFC's job,
        and the port never drops a lossless packet."""
        env = Environment()
        switch = Switch(env, "sw", "tor", forwarding_latency=0.1e-6,
                        rng=RandomStreams(seed=0).stream("switch:sw"),
                        background=idle_model(),
                        pfc=PfcConfig(xoff_bytes=10 ** 9,
                                      xon_bytes=10 ** 8))
        slow = Port(env, "out", rate_bps=1e3, distance_m=0.0,
                    deliver=lambda p: None, queue_capacity_bytes=100)
        switch.add_port("out", slow)
        switch.set_router(lambda sw, pkt: "out")
        for _ in range(5):
            switch.receive(make_packet(payload_bytes=200,
                                       tc=TrafficClass.LOSSLESS))
        env.run(until=0.01)
        assert switch.stats.forwarded == 5

    def test_multiple_upstreams_all_paused(self):
        env = Environment()
        switch = Switch(env, "sw", "tor", forwarding_latency=0.1e-6,
                        rng=RandomStreams(seed=0).stream("switch:sw"),
                        background=idle_model(),
                        pfc=PfcConfig(xoff_bytes=1000, xon_bytes=400))
        slow = Port(env, "out", rate_bps=1e3, distance_m=0.0,
                    deliver=lambda p: None)
        switch.add_port("out", slow)
        switch.set_router(lambda sw, pkt: "out")
        upstreams = [Port(env, f"up{i}", rate_bps=40e9)
                     for i in range(3)]
        for i, port in enumerate(upstreams):
            switch.register_upstream(f"n{i}", port)
        for _ in range(5):
            switch.receive(make_packet(payload_bytes=500,
                                       tc=TrafficClass.LOSSLESS))
        env.run(until=0.01)
        assert all(p.is_paused(TrafficClass.LOSSLESS)
                   for p in upstreams)


class TestEcnEndToEnd:
    def test_mark_sets_ip_ecn_bits(self):
        env = Environment()
        config = TopologyConfig(
            background=idle(),
            ecn=EcnConfig(kmin_bytes=100, kmax_bytes=200, pmax=1.0))
        fabric = DatacenterFabric(env, config)
        got = []
        a = fabric.attach(0, lambda p: None)
        fabric.attach(1, lambda p: got.append(p))
        # Slow the victim downlink so its queue is deep when packets
        # are enqueued.
        topo = fabric.topology
        tor = topo.tor(0, 0)
        tor.ports[1].rate_bps = 1e6
        for _ in range(30):
            a.send(a.make_packet(1, b"", payload_bytes=500,
                                 traffic_class=TrafficClass.LOSSLESS))
        env.run(until=1.0)
        marked = [p for p in got if p.ecn_marked]
        assert marked
        assert all(p.ip.ecn == 0b11 for p in marked)


class TestFabricBoundaries:
    def test_custom_small_datacenter(self):
        env = Environment()
        config = TopologyConfig(hosts_per_tor=4, tors_per_pod=2, pods=2,
                                background=idle())
        fabric = DatacenterFabric(env, config)
        assert config.total_hosts == 16
        got = []
        a = fabric.attach(0, lambda p: None)
        fabric.attach(15, lambda p: got.append(p))  # last host
        a.send(a.make_packet(15, b"edge"))
        env.run()
        assert got[0].hops == 5  # cross-pod
        with pytest.raises(ValueError):
            fabric.attach(16, lambda p: None)

    def test_tier_between_same_host(self):
        env = Environment()
        fabric = DatacenterFabric(env, TopologyConfig(background=idle()))
        assert fabric.topology.tier_between(5, 5) == "L0"
