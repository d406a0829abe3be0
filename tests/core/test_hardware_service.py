"""Tests for the HardwareService facade (ganged pooled FPGAs)."""

import pytest

from repro.core import ConfigurableCloud, HardwareService
from repro.fpga import Image, ShellConfig
from repro.haas import Constraints, ResourceManager
from repro.ltl import LtlConfig
from repro.net import TopologyConfig, idle


def make_service(components=2, pool=4):
    cloud = ConfigurableCloud(
        topology=TopologyConfig(background=idle()), seed=8)
    fast_fail = ShellConfig(ltl=LtlConfig(max_consecutive_timeouts=3))
    client = cloud.add_server(100, enroll=False, shell_config=fast_fail)
    cloud.add_servers(list(range(pool)))
    service = HardwareService(cloud, "accel", Image("accel-v1", "r"),
                              Constraints(count=1),
                              components=components)
    cloud.run(until=1.0)  # deploy images
    return cloud, client, service


class TestHardwareService:
    def test_requests_round_robin_members(self):
        cloud, client, service = make_service()
        got = []
        service.set_handler(lambda p, n: got.append(p))
        service.attach_client(client)
        targets = [service.request(client, f"r{i}".encode(), 32)
                   for i in range(4)]
        cloud.run(until=cloud.env.now + 2e-3)
        assert sorted(got) == [b"r0", b"r1", b"r2", b"r3"]
        assert targets[0] != targets[1]
        assert targets[0] == targets[2]

    def test_request_without_attach_rejected(self):
        cloud, client, service = make_service()
        with pytest.raises(RuntimeError):
            service.request(client, b"x", 8)

    def test_images_deployed_on_members(self):
        cloud, _client, service = make_service()
        for host in service.hosts:
            assert cloud.shell(host).configuration.live_image.name == \
                "accel-v1"

    def test_ltl_failure_drives_haas_replacement(self):
        """The full loop: member dies silently -> client LTL timeouts ->
        HaaS revokes + replaces -> service keeps serving."""
        cloud, client, service = make_service()
        got = []
        service.set_handler(lambda p, n: got.append(p))
        service.attach_client(client)
        service.request(client, b"before", 32)
        cloud.run(until=cloud.env.now + 1e-3)
        assert got == [b"before"]

        victim = service.hosts[0]
        cloud.fabric.detach(victim)  # silent death: frames vanish
        # Drive requests until one lands on the dead member.
        for i in range(2):
            service.request(client, f"probe{i}".encode(), 32)
        cloud.run(until=cloud.env.now + 5e-3)  # detection + replacement

        assert service.failovers >= 1
        assert service.sm.stats.replacements >= 1
        assert victim not in service.hosts
        assert len(service.hosts) == 2

        got.clear()
        for i in range(4):
            service.request(client, f"after{i}".encode(), 32)
        cloud.run(until=cloud.env.now + 3e-3)
        assert sorted(got) == [b"after0", b"after1", b"after2",
                               b"after3"]

    def test_failover_reinstalls_handler_on_replacement(self):
        cloud, client, service = make_service()
        got = []
        service.set_handler(lambda p, n: got.append(p))
        service.attach_client(client)
        victim = service.hosts[0]
        cloud.fabric.detach(victim)
        for i in range(2):
            service.request(client, b"probe", 32)
        cloud.run(until=cloud.env.now + 5e-3)
        replacement = [h for h in service.hosts if h != victim]
        assert replacement
        # New member answers requests (handler installed).
        got.clear()
        for _ in range(2):
            service.request(client, b"post-failover", 32)
        cloud.run(until=cloud.env.now + 3e-3)
        assert b"post-failover" in got


class TestLeaseHeartbeat:
    def test_service_keeps_members_through_three_lease_lifetimes(self):
        """The service heartbeats its own leases: none expires, so no
        member is churned through a replacement."""
        cloud = ConfigurableCloud(
            topology=TopologyConfig(background=idle()), seed=8)
        cloud._rm = ResourceManager(cloud.env, cloud.fabric.topology,
                                    lease_duration=5.0, sweep_period=0.5)
        rm = cloud.resource_manager
        cloud.add_servers(list(range(4)),
                          shell_config=ShellConfig(with_ltl=False))
        service = HardwareService(cloud, "accel", Image("accel-v1", "r"),
                                  Constraints(count=1), components=2)
        cloud.run(until=cloud.env.now)  # the grants land
        members = sorted(service.hosts)
        assert len(members) == 2
        cloud.run(until=3 * rm.lease_duration + 1.0)
        assert rm.stats.expirations == 0
        assert service.sm.stats.replacements == 0
        assert sorted(service.hosts) == members
