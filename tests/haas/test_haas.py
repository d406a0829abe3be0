"""Tests for the HaaS control plane: constraints, RM, SM, FM."""

import pytest

from repro.core import ConfigurableCloud
from repro.fpga import Image
from repro.haas import (
    AllocationError,
    Constraints,
    FpgaManager,
    LeaseState,
    Locality,
    ServiceManager,
    select_hosts,
)
from repro.net import TopologyConfig, idle


def make_cloud(*indices):
    cloud = ConfigurableCloud(
        topology=TopologyConfig(background=idle()), seed=1)
    for i in indices:
        cloud.add_server(i)
    return cloud


class TestConstraints:
    def test_count_positive(self):
        with pytest.raises(ValueError):
            Constraints(count=0)

    def test_select_any(self):
        cloud = make_cloud(0, 1, 30, 960)
        topo = cloud.fabric.topology
        hosts = select_hosts(topo, [0, 1, 30, 960], Constraints(count=3))
        assert hosts is not None and len(hosts) == 3

    def test_select_same_tor(self):
        cloud = make_cloud()
        topo = cloud.fabric.topology
        hosts = select_hosts(topo, [0, 1, 30, 960],
                             Constraints(count=2,
                                         locality=Locality.SAME_TOR))
        assert hosts == [0, 1]

    def test_select_same_pod(self):
        cloud = make_cloud()
        topo = cloud.fabric.topology
        hosts = select_hosts(topo, [0, 30, 960, 961],
                             Constraints(count=2,
                                         locality=Locality.SAME_POD))
        assert hosts in ([0, 30], [960, 961])

    def test_infeasible_returns_none(self):
        cloud = make_cloud()
        topo = cloud.fabric.topology
        assert select_hosts(topo, [0, 960],
                            Constraints(count=2,
                                        locality=Locality.SAME_TOR)) is None

    def test_exclusions_respected(self):
        cloud = make_cloud()
        topo = cloud.fabric.topology
        hosts = select_hosts(
            topo, [0, 1, 2],
            Constraints(count=2, exclude_hosts=frozenset({1})))
        assert hosts == [0, 2]


class TestResourceManager:
    def test_register_and_pool_size(self):
        cloud = make_cloud(0, 1, 2)
        rm = cloud.resource_manager
        assert rm.pool_size == 3
        assert sorted(rm.free_hosts()) == [0, 1, 2]

    def test_double_register_rejected(self):
        cloud = make_cloud(0)
        rm = cloud.resource_manager
        with pytest.raises(ValueError):
            rm.register(FpgaManager(cloud.env, cloud.shell(0)))

    def test_acquire_allocates(self):
        cloud = make_cloud(0, 1, 2)
        rm = cloud.resource_manager
        lease = rm.acquire("svc", Constraints(count=2))
        assert len(lease.hosts) == 2
        assert rm.allocated_count == 2
        assert len(rm.free_hosts()) == 1

    def test_acquire_infeasible_raises(self):
        cloud = make_cloud(0)
        rm = cloud.resource_manager
        with pytest.raises(AllocationError):
            rm.acquire("svc", Constraints(count=2))
        assert rm.stats.failed_acquires == 1

    def test_release_returns_to_pool(self):
        cloud = make_cloud(0, 1)
        rm = cloud.resource_manager
        lease = rm.acquire("svc", Constraints(count=2))
        rm.release(lease)
        assert lease.state is LeaseState.RELEASED
        assert len(rm.free_hosts()) == 2

    def test_failed_node_revokes_lease(self):
        cloud = make_cloud(0, 1, 2)
        rm = cloud.resource_manager
        revoked = []
        lease = rm.acquire("svc", Constraints(count=2),
                           on_revoked=lambda l, s: revoked.append(l))
        failed_host = lease.hosts[0]
        rm.manager(failed_host).mark_failed()
        assert revoked == [lease]
        assert lease.state is LeaseState.REVOKED
        assert failed_host not in rm.free_hosts()

    def test_lease_expiry_sweeps(self):
        cloud = make_cloud(0, 1)
        rm = cloud.resource_manager
        rm.lease_duration = 100.0
        expired = []
        rm.acquire("svc", Constraints(count=1),
                   on_revoked=lambda l, s: expired.append(l))
        cloud.run(until=200.0)
        assert len(expired) == 1
        assert rm.stats.expirations == 1
        assert len(rm.free_hosts()) == 2

    def test_renew_extends_lease(self):
        cloud = make_cloud(0, 1)
        rm = cloud.resource_manager
        rm.lease_duration = 100.0
        expired = []
        lease = rm.acquire("svc", Constraints(count=1),
                           on_revoked=lambda l, s: expired.append(l))

        def heartbeat(env):
            for _ in range(5):
                yield env.timeout(50.0)
                if lease.state is LeaseState.ACTIVE:
                    rm.renew(lease)

        cloud.env.process(heartbeat(cloud.env))
        cloud.run(until=240.0)
        assert expired == []
        assert lease.is_active(cloud.env.now)


class TestServiceManager:
    def _sm(self, cloud, count=1, components=1):
        rm = cloud.resource_manager
        sm = ServiceManager(cloud.env, "dnn", rm,
                            Image("dnn-v1", "dnn"),
                            Constraints(count=count))
        sm.grow(components)
        cloud.run(until=cloud.env.now)  # the grants land
        return sm

    def test_grow_deploys_image(self):
        cloud = make_cloud(0, 1)
        sm = self._sm(cloud, count=2)
        cloud.run(until=5.0)
        for host in sm.hosts:
            assert cloud.shell(host).configuration.live_image.name \
                == "dnn-v1"

    def test_pick_round_robins(self):
        cloud = make_cloud(0, 1)
        sm = self._sm(cloud, count=2)
        picks = [sm.pick() for _ in range(4)]
        assert picks == [sm.hosts[0], sm.hosts[1]] * 2

    def test_pick_without_capacity_raises(self):
        cloud = make_cloud(0)
        rm = cloud.resource_manager
        sm = ServiceManager(cloud.env, "x", rm, Image("i", "r"))
        with pytest.raises(RuntimeError):
            sm.pick()

    def test_failure_triggers_replacement(self):
        """'Failing nodes are removed from the pool with replacements
        quickly added.'"""
        cloud = make_cloud(0, 1, 2)
        sm = self._sm(cloud, count=1)
        original = sm.hosts[0]
        cloud.resource_manager.manager(original).mark_failed()
        cloud.run(until=cloud.env.now)  # the push and the new grant land
        assert sm.stats.components_lost == 1
        assert sm.stats.replacements == 1
        assert sm.hosts and sm.hosts[0] != original

    def test_replacement_exhaustion_tracked(self):
        cloud = make_cloud(0)
        sm = self._sm(cloud, count=1)
        cloud.resource_manager.manager(sm.hosts[0]).mark_failed()
        cloud.run(until=cloud.env.now)  # the push and the refusal land
        assert sm.pending_replacements == 1
        assert sm.hosts == []

    def test_shrink_releases(self):
        cloud = make_cloud(0, 1)
        sm = self._sm(cloud, count=1, components=2)
        assert len(sm.hosts) == 2
        sm.shrink(1)
        cloud.run(until=cloud.env.now)  # the release lands
        assert len(sm.hosts) == 1
        assert len(cloud.resource_manager.free_hosts()) == 1


class TestLeaseCopies:
    """The SM holds copies of its leases on every channel config: the
    RM's own records change only RM-side, and reach the SM as pushes."""

    def _grown(self, cloud):
        sm = ServiceManager(cloud.env, "svc", cloud.resource_manager,
                            Image("i", "r"), Constraints(count=1))
        sm.grow(1)
        cloud.run(until=cloud.env.now)  # the grant lands
        return sm

    def test_sm_lease_is_not_the_rm_object(self):
        cloud = make_cloud(0, 1)
        sm = self._grown(cloud)
        mine = sm.leases[0]
        theirs = cloud.resource_manager._leases[mine.lease_id]
        assert mine is not theirs
        assert mine.hosts == theirs.hosts
        assert mine.hosts is not theirs.hosts
        assert mine.fence == theirs.fence

    def test_revocation_reaches_the_copy_only_through_the_push(self):
        cloud = make_cloud(0, 1, 2)
        sm = self._grown(cloud)
        mine = sm.leases[0]
        cloud.resource_manager.manager(mine.hosts[0]).mark_failed()
        # The RM revoked its own record; the SM has not heard yet.
        assert mine.state is LeaseState.ACTIVE
        assert sm.stats.components_lost == 0
        cloud.run(until=cloud.env.now)  # the push lands
        assert mine.state is LeaseState.REVOKED
        assert mine not in sm.leases
        assert sm.stats.components_lost == 1

    def test_lost_expiry_push_leaves_the_copy_active(self):
        cloud = make_cloud(0, 1)
        rm = cloud.resource_manager
        rm.lease_duration = 100.0
        sm = self._grown(cloud)
        mine = sm.leases[0]
        sm.channel.partition_for(1000.0)  # the expiry push is dropped
        cloud.run(until=200.0)
        assert rm.stats.expirations == 1
        assert mine.state is LeaseState.ACTIVE
        assert sm.channel.stats.pushes_lost == 1
        assert sm.stats.components_lost == 0


class TestHeartbeatKeepsService:
    def test_sm_heartbeat_prevents_expiry(self):
        cloud = ConfigurableCloud(
            topology=TopologyConfig(background=idle()), seed=5)
        cloud.add_servers([0, 1])
        rm = cloud.resource_manager
        rm.lease_duration = 60.0
        sm = ServiceManager(cloud.env, "svc", rm, Image("i", "r"),
                            Constraints(count=1))
        sm.grow(1)
        sm.start_heartbeat()
        cloud.run(until=400.0)
        assert sm.stats.components_lost == 0
        assert len(sm.hosts) == 1
        assert rm.stats.expirations == 0


class TestFpgaManager:
    def test_recover_power_cycles_to_golden(self):
        cloud = make_cloud(0)
        manager = cloud.resource_manager.manager(0)
        cloud.env.process(manager.configure(Image("app", "role")))
        cloud.run(until=2.0)
        assert cloud.shell(0).configuration.live_image.name == "app"
        cloud.env.process(manager.recover())
        cloud.run(until=30.0)
        assert cloud.shell(0).configuration.live_image.name == "golden"
