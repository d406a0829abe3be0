"""Tests for the bump-in-the-wire bridge and the assembled shell."""

import pytest

from repro.fpga import Shell, ShellConfig
from repro.fpga.bridge import Bridge
from repro.net import DatacenterFabric, TopologyConfig, idle
from repro.net.packet import EthernetHeader, Packet
from repro.sim import Environment


def make_packet(payload=b"data"):
    return Packet(eth=EthernetHeader("02:00:00:00:00:01",
                                     "02:00:00:00:00:02"),
                  payload=payload)


class TestBridge:
    def test_passthrough_both_directions(self):
        env = Environment()
        to_nic, to_tor = [], []
        bridge = Bridge(env, deliver_to_nic=to_nic.append,
                        deliver_to_tor=to_tor.append)
        bridge.from_tor(make_packet(b"inbound"))
        bridge.from_nic(make_packet(b"outbound"))
        env.run()
        assert [p.payload for p in to_nic] == [b"inbound"]
        assert [p.payload for p in to_tor] == [b"outbound"]

    def test_tap_can_transform(self):
        env = Environment()
        to_tor = []
        bridge = Bridge(env, deliver_to_tor=to_tor.append)

        def upper(packet):
            packet.payload = packet.payload.upper()
            return packet

        bridge.add_nic_to_tor_tap(upper)
        bridge.from_nic(make_packet(b"abc"))
        env.run()
        assert to_tor[0].payload == b"ABC"

    def test_tap_can_consume(self):
        env = Environment()
        to_nic = []
        bridge = Bridge(env, deliver_to_nic=to_nic.append)
        bridge.add_tor_to_nic_tap(lambda p: None)
        bridge.from_tor(make_packet())
        env.run()
        assert to_nic == []
        assert bridge.stats.consumed_by_taps == 1

    def test_taps_apply_in_order(self):
        env = Environment()
        to_tor = []
        bridge = Bridge(env, deliver_to_tor=to_tor.append)
        bridge.add_nic_to_tor_tap(lambda p: (setattr(
            p, "payload", p.payload + b"-1"), p)[1])
        bridge.add_nic_to_tor_tap(lambda p: (setattr(
            p, "payload", p.payload + b"-2"), p)[1])
        bridge.from_nic(make_packet(b"x"))
        env.run()
        assert to_tor[0].payload == b"x-1-2"

    def test_link_down_drops_and_counts(self):
        env = Environment()
        to_nic = []
        bridge = Bridge(env, deliver_to_nic=to_nic.append)
        bridge.link_up = False
        bridge.from_tor(make_packet())
        bridge.inject_to_tor(make_packet())
        env.run()
        assert to_nic == []
        assert bridge.stats.dropped_link_down == 2

    def test_tap_latency_hook_delays_packet(self):
        env = Environment()
        times = []
        bridge = Bridge(env, deliver_to_tor=lambda p: times.append(env.now))

        class SlowTap:
            def __call__(self, packet):
                return packet

            @staticmethod
            def latency_for(packet):
                return 10e-6

        bridge.add_nic_to_tor_tap(SlowTap())
        bridge.from_nic(make_packet())
        env.run()
        assert times[0] >= 10e-6

    def test_remove_tap(self):
        env = Environment()
        to_tor = []
        bridge = Bridge(env, deliver_to_tor=to_tor.append)
        tap = lambda p: None  # noqa: E731
        bridge.add_nic_to_tor_tap(tap)
        bridge.remove_tap(tap)
        bridge.from_nic(make_packet())
        env.run()
        assert len(to_tor) == 1


class TestShell:
    def _cloud(self, *indices, config=None):
        env = Environment()
        fabric = DatacenterFabric(env, TopologyConfig(background=idle()))
        shells = [Shell(env, i, fabric, config=config) for i in indices]
        return env, fabric, shells

    def test_ltl_between_shells(self):
        env, fabric, (a, b) = self._cloud(0, 1)
        a.connect_to(b)
        got = []
        b.role_receive = lambda p, n: got.append((p, n))
        a.remote_send(1, b"role-msg", 64)
        env.run(until=1e-3)
        assert got == [(b"role-msg", 64)]

    def test_nic_traffic_bridged_while_ltl_active(self):
        """Passthrough and LTL coexist: 'the passthrough traffic and the
        search ranking acceleration have no performance interaction'."""
        env, fabric, (a, b) = self._cloud(0, 1)
        a.connect_to(b)
        nic_got, role_got = [], []
        b.nic_receive = lambda p: nic_got.append(p.payload)
        b.role_receive = lambda p, n: role_got.append(p)
        a.remote_send(1, b"ltl", 64)
        a.send_from_nic(a.attachment.make_packet(1, b"tcp-ish"))
        env.run(until=1e-3)
        assert nic_got == [b"tcp-ish"]
        assert role_got == [b"ltl"]

    def test_remote_send_without_connection_fails(self):
        env, fabric, (a, b) = self._cloud(0, 1)
        a.remote_send(1, b"x", 16)
        with pytest.raises(RuntimeError, match="no LTL connection"):
            env.run(until=1e-3)

    def test_shell_without_ltl_block(self):
        env, fabric, shells = self._cloud(
            0, config=ShellConfig(with_ltl=False))
        a = shells[0]
        assert a.ltl is None
        b = Shell(env, 1, fabric)
        with pytest.raises(RuntimeError):
            a.connect_to(b)

    def test_connect_is_idempotent(self):
        env, fabric, (a, b) = self._cloud(0, 1)
        a.connect_to(b)
        a.connect_to(b)
        assert len(a._send_conns) == 1

    def test_ltl_packets_not_bridged_to_nic(self):
        env, fabric, (a, b) = self._cloud(0, 1)
        a.connect_to(b)
        nic_got = []
        b.nic_receive = lambda p: nic_got.append(p)
        b.role_receive = lambda p, n: None
        a.remote_send(1, b"ltl-only", 64)
        env.run(until=1e-3)
        assert nic_got == []

    def test_reconfig_link_down_stops_bridging(self):
        env, fabric, (a, b) = self._cloud(0, 1)
        nic_got = []
        b.nic_receive = lambda p: nic_got.append(p)
        env.process(a.configuration.power_cycle())

        def send_during(env):
            yield env.timeout(0.5)  # mid-reconfig
            a.send_from_nic(a.attachment.make_packet(1, b"lost"))

        env.process(send_during(env))
        env.run(until=2.0)
        assert nic_got == []
        assert a.bridge.stats.dropped_link_down >= 1

    def test_l0_rtt_matches_paper(self):
        """Same-TOR LTL RTT ~ 2.88 us (idle)."""
        env, fabric, (a, b) = self._cloud(0, 1)
        a.connect_to(b)

        def driver(env):
            for _ in range(20):
                a.remote_send(1, b"\x00" * 64, 64)
                yield env.timeout(100e-6)

        env.process(driver(env))
        env.run(until=0.05)
        samples = a.ltl.rtt_samples()
        mean = sum(samples) / len(samples)
        assert mean == pytest.approx(2.88e-6, rel=0.03)
