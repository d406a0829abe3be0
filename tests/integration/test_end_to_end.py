"""Cross-subsystem integration tests: the whole Configurable Cloud."""

import statistics

import pytest

from repro.core import ConfigurableCloud
from repro.crypto import EncryptionTap, FlowKey
from repro.fpga import Image
from repro.haas import Constraints, ServiceManager
from repro.net import TopologyConfig, idle


def make_cloud(seed=0, quiet=True):
    topology = TopologyConfig(background=idle()) if quiet else None
    return ConfigurableCloud(topology=topology, seed=seed)


class TestThreeScenarios:
    """The paper's three scenarios on one infrastructure: local compute
    acceleration, network acceleration, and remote acceleration."""

    def test_all_three_coexist(self):
        cloud = make_cloud()
        a = cloud.add_server(0)
        b = cloud.add_server(1)
        c = cloud.add_server(2)

        # Network acceleration: encrypted flow a -> b.
        tap_a, tap_b = EncryptionTap(), EncryptionTap()
        tap_a.install(a.shell.bridge)
        tap_b.install(b.shell.bridge)
        packet = a.shell.attachment.make_packet(
            1, b"secret payload", src_port=10, dst_port=20)
        key = FlowKey.of_packet(packet)
        tap_a.flows.setup_flow(key, bytes(16))
        tap_b.flows.setup_flow(key, bytes(16))

        # Remote acceleration: role messages a -> c over LTL.
        cloud.connect(0, 2)
        role_got = []
        c.shell.role_receive = lambda p, n: role_got.append(p)

        nic_got = []
        b.on_packet(lambda p: nic_got.append(p.payload))

        a.nic_send(packet)
        a.shell.remote_send(2, b"offload", 64)
        cloud.run(until=1e-3)

        assert nic_got == [b"secret payload"]   # decrypted transparently
        assert role_got == [b"offload"]
        assert tap_a.encrypted == 1 and tap_b.decrypted == 1


class TestLatencyTiers:
    def test_fig10_ordering(self):
        """RTT strictly ordered L0 < L1 < L2, all under 23.5 us."""
        cloud = make_cloud(seed=7)
        # quiet network so the tier ordering is deterministic
        cloud.add_servers([0, 1, 2, 30, 3, 100_000])
        l0 = statistics.mean(cloud.measure_ltl_rtt(0, 1, messages=15))
        l1 = statistics.mean(cloud.measure_ltl_rtt(2, 30, messages=15))
        l2 = statistics.mean(cloud.measure_ltl_rtt(3, 100_000,
                                                   messages=15))
        assert l0 < l1 < l2
        assert l0 == pytest.approx(2.88e-6, rel=0.03)
        assert l2 < 23.5e-6


class TestHaasDrivenRemoteService:
    def test_service_lifecycle_with_failure(self):
        """SM acquires pooled FPGAs, deploys a role, survives a failure,
        and keeps serving remote requests."""
        cloud = make_cloud(seed=2)
        client = cloud.add_server(0, enroll=False)  # not donated to HaaS
        pool_hosts = [1, 2, 3]
        cloud.add_servers(pool_hosts)
        rm = cloud.resource_manager
        sm = ServiceManager(cloud.env, "accel", rm,
                            Image("accel-v1", "accel"),
                            Constraints(count=1))
        sm.grow(2)
        cloud.run(until=1.0)  # partial reconfigs complete

        got = []
        for host in pool_hosts:
            cloud.shell(host).role_receive = \
                lambda p, n, h=host: got.append((h, p))

        target = sm.pick()
        cloud.connect(0, target)
        client.shell.remote_send(target, b"req-1", 64)
        cloud.run(until=cloud.env.now + 1e-3)
        assert got and got[-1][1] == b"req-1"

        # Kill the serving FPGA: SM replaces it from the pool.
        rm.manager(target).mark_failed()
        assert sm.stats.replacements == 1
        replacement = sm.pick()
        assert replacement != target
        cloud.connect(0, replacement)
        client.shell.remote_send(replacement, b"req-2", 64)
        cloud.run(until=cloud.env.now + 1e-3)
        assert got[-1] == (replacement, b"req-2")


class TestBumpInTheWireResilience:
    def test_fpga_failure_does_not_affect_neighbors(self):
        """Unlike the torus, a dead bump-in-the-wire FPGA only cuts off
        its own server."""
        cloud = make_cloud(seed=3)
        a = cloud.add_server(0)
        b = cloud.add_server(1)
        c = cloud.add_server(2)
        # Server 1's FPGA link goes down (e.g. a wedged image).
        b.shell.bridge.link_up = False
        got_c = []
        c.on_packet(lambda p: got_c.append(p.payload))
        a.send_to(2, b"a-to-c")
        a.send_to(1, b"a-to-b")
        cloud.run(until=1e-3)
        # c unaffected; b unreachable.
        assert got_c == [b"a-to-c"]
        assert b.packets_received == 0

    def test_power_cycle_recovers_reachability(self):
        cloud = make_cloud(seed=4)
        a = cloud.add_server(0)
        b = cloud.add_server(1)
        got = []
        b.on_packet(lambda p: got.append(p.payload))
        # Wedge b's FPGA, then recover via the management path.
        b.shell.configuration._set_link(False)
        a.send_to(1, b"lost")
        cloud.run(until=1e-3)
        assert got == []
        cloud.env.process(b.shell.configuration.power_cycle())
        cloud.run(until=cloud.env.now + 30.0)
        assert b.shell.configuration.live_image.name == "golden"
        a.send_to(1, b"back")
        cloud.run(until=cloud.env.now + 1e-3)
        assert got == [b"back"]


class TestMultiFpgaService:
    def test_pipeline_across_three_fpgas(self):
        """Ganging FPGAs into a multi-FPGA pipeline over LTL (the
        'multi-FPGA service' the ER+LTL combination enables)."""
        cloud = make_cloud(seed=5)
        cloud.add_servers([0, 1, 2])
        cloud.connect(0, 1)
        cloud.connect(1, 2)
        done = []

        def stage1(payload, n):
            cloud.shell(1).remote_send(2, payload + b"+s1", n)

        def stage2(payload, n):
            done.append(payload + b"+s2")

        cloud.shell(1).role_receive = stage1
        cloud.shell(2).role_receive = stage2
        cloud.shell(0).remote_send(1, b"q", 64)
        cloud.run(until=1e-3)
        assert done == [b"q+s1+s2"]
