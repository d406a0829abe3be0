"""Tests for the 3-tier topology and the fabric facade."""

import pytest

from repro.net import (
    DatacenterFabric,
    LatencyModel,
    PfcConfig,
    TopologyConfig,
    TrafficClass,
    idle,
)
from repro.net.topology import ThreeTierTopology
from repro.sim import Environment, RandomStreams


class TestTopologyConfig:
    def test_default_scale_exceeds_quarter_million(self):
        config = TopologyConfig()
        assert config.total_hosts > 250_000
        assert config.hosts_per_pod == 960
        assert config.hosts_per_tor == 24


class TestThreeTierTopology:
    def _topo(self, **kwargs):
        env = Environment()
        return ThreeTierTopology(env, TopologyConfig(**kwargs),
                                 RandomStreams(0))

    def test_tier_between(self):
        topo = self._topo()
        assert topo.tier_between(0, 1) == "L0"
        assert topo.tier_between(0, 24) == "L1"
        assert topo.tier_between(0, 959) == "L1"
        assert topo.tier_between(0, 960) == "L2"

    def test_out_of_range_host_rejected(self):
        topo = self._topo(pods=2)
        with pytest.raises(ValueError):
            topo.coords(2 * 960)

    def test_switches_created_lazily(self):
        topo = self._topo()
        assert not topo._tors and not topo._l1s and topo._l2 is None
        topo.tor(0, 0)
        assert (0, 0) in topo._tors
        assert 0 in topo._l1s           # wired up to its pod L1
        assert topo._l2 is not None     # and the L1 up to L2

    def test_switch_caching(self):
        topo = self._topo()
        assert topo.tor(1, 2) is topo.tor(1, 2)
        assert topo.l1(1) is topo.l1(1)
        assert topo.l2() is topo.l2()

    def test_pod_distance_deterministic_and_bounded(self):
        topo = self._topo()
        lat = topo.config.latency
        for pod in range(20):
            d = topo.pod_distance_m(pod)
            assert d == topo.pod_distance_m(pod)
            assert lat.l1_l2_distance_min_m <= d <= \
                lat.l1_l2_distance_max_m

    def test_distinct_pods_get_distinct_distances(self):
        topo = self._topo()
        distances = {round(topo.pod_distance_m(p), 6) for p in range(30)}
        assert len(distances) > 20

    def test_addressing_helpers(self):
        topo = self._topo()
        assert topo.ip_of(0) == "10.0.0.0"
        assert topo.mac_of(5).startswith("02:")

    def test_address_strings_cached_per_host(self):
        topo = self._topo()
        assert topo.ip_of(30) is topo.ip_of(30)
        assert topo.mac_of(30) is topo.mac_of(30)
        for _ in range(2):  # not cached when invalid
            with pytest.raises(ValueError):
                topo.ip_of(topo.config.total_hosts)
            with pytest.raises(ValueError):
                topo.mac_of(-1)


class TestFabric:
    def _fabric(self):
        env = Environment()
        config = TopologyConfig(background=idle())
        return env, DatacenterFabric(env, config)

    def test_same_tor_delivery(self):
        env, fabric = self._fabric()
        got = []
        a = fabric.attach(0, lambda p: got.append(p))
        fabric.attach(1, lambda p: got.append(p))
        a.send(a.make_packet(1, b"hi"))
        env.run()
        assert len(got) == 1 and got[0].payload == b"hi"
        assert got[0].hops == 1  # one TOR traversal

    def test_same_pod_delivery_hops(self):
        env, fabric = self._fabric()
        got = []
        a = fabric.attach(0, lambda p: None)
        fabric.attach(30, lambda p: got.append(p))
        a.send(a.make_packet(30, b"pod"))
        env.run()
        assert got[0].hops == 3  # TOR, L1, TOR

    def test_cross_pod_delivery_hops(self):
        env, fabric = self._fabric()
        got = []
        a = fabric.attach(0, lambda p: None)
        fabric.attach(5000, lambda p: got.append(p))
        a.send(a.make_packet(5000, b"far"))
        env.run()
        assert got[0].hops == 5  # TOR, L1, L2, L1, TOR

    def test_duplicate_attach_rejected(self):
        env, fabric = self._fabric()
        fabric.attach(0, lambda p: None)
        with pytest.raises(ValueError):
            fabric.attach(0, lambda p: None)

    def test_detach_stops_delivery(self):
        env, fabric = self._fabric()
        got = []
        a = fabric.attach(0, lambda p: None)
        fabric.attach(1, lambda p: got.append(p))
        fabric.detach(1)
        a.send(a.make_packet(1, b"gone"))
        env.run()
        assert got == []

    def test_detach_while_the_tor_port_drains(self):
        """The TOR port keeps draining after its host detaches; its
        transmit completions must not reach the switch it left."""
        env, fabric = self._fabric()
        got = []
        a = fabric.attach(0, lambda p: None)
        fabric.attach(1, got.append)
        for _ in range(5):
            a.send(a.make_packet(1, b"", payload_bytes=1000))
        env.run(until=0.9e-6)
        fabric.detach(1)
        env.run(until=1e-3)
        assert got == []

    def test_detach_withdraws_the_pause_its_port_held(self):
        """A host detached while its TOR port holds a PFC pause must not
        leave every lossless upstream of that TOR paused."""
        env = Environment()
        config = TopologyConfig(
            background=idle(),
            pfc=PfcConfig(xoff_bytes=8 * 1024, xon_bytes=4 * 1024))
        fabric = DatacenterFabric(env, config)
        got = []
        senders = [fabric.attach(host, lambda p: None) for host in (0, 2)]
        fabric.attach(1, lambda p: None)
        fabric.attach(3, got.append)
        for _ in range(20):
            for sender in senders:
                sender.send(sender.make_packet(
                    1, b"", payload_bytes=1000,
                    traffic_class=TrafficClass.LOSSLESS))
        env.run(until=2e-6)
        tor = fabric.topology.tor(0, 0)
        assert tor.stats.pfc_pause_sent == 1
        fabric.detach(1)
        assert tor.stats.pfc_resume_sent == 1
        env.run(until=50e-6)
        a = senders[0]
        assert not a.uplink.is_paused(TrafficClass.LOSSLESS)
        for _ in range(5):
            a.send(a.make_packet(3, b"", payload_bytes=100,
                                 traffic_class=TrafficClass.LOSSLESS))
        env.run(until=1e-3)
        assert len(got) == 5

    def test_detach_unknown_raises(self):
        env, fabric = self._fabric()
        with pytest.raises(KeyError):
            fabric.detach(7)

    def test_attachment_lookup(self):
        env, fabric = self._fabric()
        a = fabric.attach(3, lambda p: None)
        assert fabric.attachment(3) is a
        assert fabric.is_attached(3)
        assert not fabric.is_attached(4)

    def test_packet_created_at_stamped(self):
        env, fabric = self._fabric()
        a = fabric.attach(0, lambda p: None)
        fabric.attach(1, lambda p: None)

        def later(env):
            yield env.timeout(1.0)
            packet = a.make_packet(1, b"x")
            a.send(packet)
            assert packet.created_at == 1.0

        env.process(later(env))
        env.run()

    def test_l0_one_way_latency_close_to_budget(self):
        """Raw network one-way at L0 ~ tor latency + ser + prop."""
        env, fabric = self._fabric()
        times = []
        a = fabric.attach(0, lambda p: None)
        fabric.attach(1, lambda p: times.append(env.now))
        a.send(a.make_packet(1, b"\x00" * 64,
                             traffic_class=TrafficClass.LOSSLESS))
        env.run()
        lat = fabric.config.latency
        assert times[0] == pytest.approx(lat.tor_latency, rel=0.5)


class TestLatencyModelJitter:
    def test_idle_model_samples_zero(self):
        import random
        model = idle()
        rng = random.Random(0)
        for tier in ("tor", "l1", "l2"):
            assert model.sample(tier, rng) == 0.0

    def test_unknown_tier_rejected(self):
        import random
        with pytest.raises(ValueError):
            idle().sample("l3", random.Random(0))

    def test_default_l2_jitter_larger_than_tor(self):
        import random
        from repro.net import BackgroundTrafficModel
        model = BackgroundTrafficModel()
        rng = random.Random(1)
        tor = sum(model.sample("tor", rng) for _ in range(500))
        rng = random.Random(1)
        l2 = sum(model.sample("l2", rng) for _ in range(500))
        assert l2 > tor
