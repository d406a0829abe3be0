"""Lease-epoch fencing: stale holders must be rejected at the FPGA."""

from repro.core import ConfigurableCloud
from repro.fpga import Image, ShellConfig
from repro.haas import Constraints, ResourceManager
from repro.net import TopologyConfig, idle

IMAGE = Image(name="svc", role_name="svc-role")


def make_cloud(*indices, lease=60.0, sweep=0.5, quarantine=2.0):
    cloud = ConfigurableCloud(
        topology=TopologyConfig(background=idle()), seed=1)
    cloud._rm = ResourceManager(cloud.env, cloud.fabric.topology,
                                lease_duration=lease, sweep_period=sweep,
                                quarantine_seconds=quarantine)
    for i in indices:
        cloud.add_server(i, shell_config=ShellConfig(with_ltl=False))
    return cloud


class TestFpgaManagerFence:
    def test_install_is_monotonic(self):
        cloud = make_cloud(0)
        fm = cloud.resource_manager.manager(0)
        fm.install_fence(5)
        fm.install_fence(3)   # a lower fence must never regress it
        assert fm.fence == 5

    def test_current_fence_admitted_stale_rejected(self):
        cloud = make_cloud(0)
        fm = cloud.resource_manager.manager(0)
        fm.install_fence(5)
        assert fm.admit_traffic(5)
        assert fm.admit_traffic(6)
        assert not fm.admit_traffic(4)
        assert fm.fence_rejections == 1

    def test_unfenced_traffic_admitted(self):
        # fence=None marks a caller predating the fencing scheme (or a
        # non-leased probe); it is let through, not rejected.
        cloud = make_cloud(0)
        fm = cloud.resource_manager.manager(0)
        fm.install_fence(5)
        assert fm.admit_traffic(None)
        assert fm.fence_rejections == 0

    def test_stale_configure_is_a_recorded_noop(self):
        cloud = make_cloud(0)
        env, rm = cloud.env, cloud.resource_manager
        env.run(until=12.0)  # initial golden-image configure
        fm = rm.manager(0)
        fm.install_fence(5)
        before = fm.configurations
        env.process(fm.configure(IMAGE, fence=4))
        env.run(until=env.now + 5.0)
        assert fm.configurations == before
        assert fm.fence_rejections == 1
        rejects = [r for r in rm.journal.records
                   if r.kind == "fence_reject"]
        assert len(rejects) == 1
        assert rejects[0].data["op"] == "configure"


class TestRmFenceDiscipline:
    def test_grants_carry_strictly_increasing_fences(self):
        cloud = make_cloud(0, 1, 2)
        rm = cloud.resource_manager
        leases = [rm.acquire(f"svc-{i}", Constraints(count=1))
                  for i in range(3)]
        fences = [lease.fence for lease in leases]
        assert fences == sorted(fences)
        assert len(set(fences)) == 3

    def test_grant_installs_fence_on_every_host(self):
        cloud = make_cloud(0, 1)
        rm = cloud.resource_manager
        lease = rm.acquire("svc", Constraints(count=2))
        for host in lease.hosts:
            assert rm.manager(host).fence >= lease.fence

    def test_release_raises_barrier_above_old_lease(self):
        cloud = make_cloud(0)
        rm = cloud.resource_manager
        old = rm.acquire("svc", Constraints(count=1))
        host = old.hosts[0]
        rm.release(old)
        fm = rm.manager(host)
        # The freed host's fence now supersedes the released lease: a
        # holder that somehow kept the old grant is already fenced off,
        # even before anyone else is granted the host.
        assert fm.fence > old.fence
        assert not fm.admit_traffic(old.fence)

    def test_next_holder_outranks_evicted_one(self):
        cloud = make_cloud(0)
        env, rm = cloud.env, cloud.resource_manager
        env.run(until=12.0)
        old = rm.acquire("svc-a", Constraints(count=1))
        host = old.hosts[0]
        rm.manager(host).mark_failed("flap", hard=False)  # revokes old
        # Soft failure: the FM monitor power-cycles the board (~10 s)
        # and the quarantine lapses, making the host leasable again.
        env.run(until=env.now + 30.0)
        new = rm.acquire("svc-b", Constraints(count=1))
        assert new.hosts == [host]
        fm = rm.manager(host)
        assert not fm.admit_traffic(old.fence)   # split-brain defense
        assert fm.admit_traffic(new.fence)
