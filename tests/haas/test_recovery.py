"""Tests for the HaaS recovery machinery added for chaos hardening:
lease expiry + renewal races, RM quarantine, the SM replacement retry
loop, the FM periodic health monitor, and RM crash recovery."""

import random

import pytest

from repro.core import ConfigurableCloud
from repro.fpga import Image, SeuScrubber, ShellConfig
from repro.haas import (
    EPOCH_STRIDE,
    Constraints,
    FpgaHealth,
    LeaseExpired,
    LeaseState,
    ResourceManager,
    ServerUnavailable,
    ServiceManager,
)
from repro.haas.fpga_manager import MONITOR_PERIOD_SECONDS
from repro.net import TopologyConfig, idle

IMAGE = Image(name="svc", role_name="svc-role")


def make_cloud(*indices, lease=5.0, sweep=0.5, quarantine=2.0):
    """Control-plane-only cloud: shells without LTL (no 10 us timer
    wheel), RM with fast lease/sweep/quarantine for sim-seconds tests."""
    cloud = ConfigurableCloud(
        topology=TopologyConfig(background=idle()), seed=1)
    cloud._rm = ResourceManager(cloud.env, cloud.fabric.topology,
                                lease_duration=lease, sweep_period=sweep,
                                quarantine_seconds=quarantine)
    for i in indices:
        cloud.add_server(i, shell_config=ShellConfig(with_ltl=False))
    return cloud


def settle(cloud, seconds=12.0):
    """Run past the initial configure (a few seconds of sim time)."""
    cloud.env.run(until=cloud.env.now + seconds)


class TestExpiryAndRenewal:
    def test_missed_heartbeats_expire_lease_exactly_once(self):
        cloud = make_cloud(0, 1, 2)
        env, rm = cloud.env, cloud.resource_manager
        sm = ServiceManager(env, "svc", rm, IMAGE)
        revoked = []
        lease = rm.acquire("svc", sm.constraints,
                           on_revoked=lambda l, s: revoked.append(l))
        held = list(lease.hosts)
        # No heartbeat at all: the sweeper must expire the lease shortly
        # after lease_duration and notify exactly once.
        env.run(until=lease.expires_at + 2 * rm._sweep_period)
        assert revoked == [lease]
        assert lease.state is LeaseState.EXPIRED
        assert rm.stats.expirations == 1
        # Expiry is not a failure: hosts return to the pool unquarantined.
        for host in held:
            assert host in rm.free_hosts()

    def test_heartbeat_keeps_lease_alive(self):
        cloud = make_cloud(0, 1)
        env, rm = cloud.env, cloud.resource_manager
        sm = ServiceManager(env, "svc", rm, IMAGE)
        sm.grow(1)
        sm.start_heartbeat()
        env.run(until=4 * rm.lease_duration)
        assert len(sm.leases) == 1
        assert sm.leases[0].state is LeaseState.ACTIVE
        assert rm.stats.expirations == 0

    def test_renew_all_skips_revoked_lease(self):
        """The renewal race: a lease revoked between heartbeats must not
        kill the heartbeat or resurrect the lease."""
        cloud = make_cloud(0, 1, 2, 3, lease=60.0)
        env, rm = cloud.env, cloud.resource_manager
        sm = ServiceManager(env, "svc", rm, IMAGE)
        sm.grow(2)
        settle(cloud)
        victim = sm.leases[0]
        survivor = sm.leases[1]
        rm.manager(victim.hosts[0]).mark_failed("test kill")
        # The revoked lease object is gone from the SM (replaced), but
        # simulate the race where a stale reference lingers:
        sm.leases.append(victim)
        before = survivor.expires_at
        env.run(until=env.now + 1.0)
        sm.renew_all()  # must not raise
        assert victim.state is LeaseState.REVOKED
        assert survivor.expires_at > before
        sm.leases.remove(victim)

    def test_renew_unknown_lease_still_raises_for_direct_callers(self):
        cloud = make_cloud(0)
        rm = cloud.resource_manager
        sm = ServiceManager(cloud.env, "svc", rm, IMAGE)
        lease = sm.grow(1)[0]
        rm.release(lease)
        with pytest.raises(KeyError):
            rm.renew(lease)

    def test_renew_of_expired_unswept_lease_rejected(self):
        """The expiry race: a renew arriving after ``expires_at`` but
        before the sweeper's next pass must NOT resurrect the lease."""
        cloud = make_cloud(0, 1, lease=2.0, sweep=60.0)
        env, rm = cloud.env, cloud.resource_manager
        lease = rm.acquire("svc", Constraints(count=1))
        held = list(lease.hosts)
        env.run(until=lease.expires_at + 0.5)  # dead, not yet swept
        with pytest.raises(LeaseExpired):
            rm.renew(lease)
        # The rejected renew settled the lease's fate on the spot.
        assert lease.state is LeaseState.EXPIRED
        assert rm.stats.expirations == 1
        assert rm.stats.renew_rejections == 1
        for host in held:
            assert host in rm.free_hosts()

    def test_suspension_past_lease_lifetime_expires_then_replaces(self):
        """Heartbeat suspension x expiry sweep: a stall longer than the
        lease loses the component; the sweep-driven revocation push gets
        it replaced, and resumed heartbeats keep the replacement."""
        cloud = make_cloud(0, 1, 2, lease=4.0, sweep=0.5)
        env, rm = cloud.env, cloud.resource_manager
        settle(cloud, 2.0)
        sm = ServiceManager(env, "svc", rm, IMAGE)
        sm.grow(1)
        sm.start_heartbeat(1.0)
        env.run(until=env.now + 3.0)
        assert rm.stats.expirations == 0  # heartbeat is doing its job
        sm.suspend_heartbeat(6.0)         # > lease duration
        env.run(until=env.now + 6.0 + 2 * rm._sweep_period)
        assert rm.stats.expirations == 1
        assert sm.stats.replacements == 1
        # Heartbeats resumed: the replacement stays alive indefinitely.
        env.run(until=env.now + 3 * rm.lease_duration)
        assert rm.stats.expirations == 1
        assert len(sm.hosts) == 1

    def test_short_suspension_within_lease_slack_is_harmless(self):
        cloud = make_cloud(0, lease=4.0, sweep=0.5)
        env, rm = cloud.env, cloud.resource_manager
        settle(cloud, 2.0)
        sm = ServiceManager(env, "svc", rm, IMAGE)
        sm.grow(1)
        sm.start_heartbeat(1.0)
        env.run(until=env.now + 2.0)
        sm.suspend_heartbeat(2.0)  # < remaining lease slack
        env.run(until=env.now + 8.0)
        assert rm.stats.expirations == 0
        assert sm.stats.replacements == 0


class TestQuarantine:
    def test_failed_host_benched_then_rehabilitated(self):
        cloud = make_cloud(0, 1, lease=60.0, quarantine=3.0)
        env, rm = cloud.env, cloud.resource_manager
        settle(cloud, 2.0)
        sm = ServiceManager(env, "svc", rm, IMAGE)
        lease = sm.grow(1)[0]
        victim = lease.hosts[0]
        rm.manager(victim).mark_failed("flaky link", hard=False)
        # Replacement must not re-pick the victim...
        assert victim not in sm.hosts
        assert rm.in_quarantine(victim)
        assert victim not in rm.free_hosts()
        assert rm.stats.quarantines == 1
        # ...but after the FM monitor rehabilitates it (soft failure,
        # cause cleared) and the quarantine lapses, it is leasable again.
        env.run(until=env.now + 30.0)
        assert rm.manager(victim).health is FpgaHealth.HEALTHY
        assert not rm.in_quarantine(victim)
        assert victim in rm.free_hosts()

    def test_expiry_does_not_quarantine(self):
        cloud = make_cloud(0, lease=2.0, sweep=0.2)
        env, rm = cloud.env, cloud.resource_manager
        lease = rm.acquire("svc", ServiceManager(
            env, "svc", rm, IMAGE).constraints)
        env.run(until=lease.expires_at + 1.0)
        assert rm.stats.expirations == 1
        assert rm.stats.quarantines == 0

    def test_lapsed_entries_pruned_by_sweeper(self):
        """The quarantine table must not grow forever: the sweeper
        drops entries once they lapse (not merely stops honoring them)."""
        cloud = make_cloud(0, 1, quarantine=1.0, sweep=0.5)
        env, rm = cloud.env, cloud.resource_manager
        settle(cloud, 2.0)
        rm.manager(0).mark_failed("flaky", hard=False)
        assert 0 in rm._quarantine_until
        env.run(until=env.now + 1.0 + 2 * rm._sweep_period)
        assert not rm.in_quarantine(0)
        assert 0 not in rm._quarantine_until  # entry gone, not stale


class TestReplacementRetry:
    def test_pending_replacement_filled_when_pool_frees(self):
        """Pool exhausted at failure time: the component goes pending
        and the background retry loop fills it once capacity appears."""
        cloud = make_cloud(0, 1, lease=60.0, quarantine=2.0)
        env, rm = cloud.env, cloud.resource_manager
        settle(cloud, 2.0)
        sm_a = ServiceManager(env, "a", rm, IMAGE)
        sm_b = ServiceManager(env, "b", rm, IMAGE)
        lease_a = sm_a.grow(1)[0]
        sm_b.grow(1)  # pool now fully allocated
        rm.manager(lease_a.hosts[0]).mark_failed("dead", hard=False)
        assert sm_a.pending_replacements == 1
        assert sm_a.leases == []
        # Competing service releases its component; the retry loop's
        # exponential backoff picks it up.
        sm_b.shrink(1)
        env.run(until=env.now + 10.0)
        assert sm_a.pending_replacements == 0
        assert len(sm_a.leases) == 1
        assert sm_a.stats.replacements == 1

    def test_immediate_replacement_when_spares_exist(self):
        cloud = make_cloud(0, 1, 2, lease=60.0)
        env, rm = cloud.env, cloud.resource_manager
        settle(cloud, 2.0)
        sm = ServiceManager(env, "svc", rm, IMAGE)
        lease = sm.grow(1)[0]
        rm.manager(lease.hosts[0]).mark_failed("dead", hard=False)
        # Replacement happened synchronously inside the revocation.
        assert sm.pending_replacements == 0
        assert len(sm.leases) == 1
        assert sm.leases[0].hosts[0] != lease.hosts[0]


class TestFpgaMonitor:
    def test_detach_detected_and_rehabilitated_on_reattach(self):
        cloud = make_cloud(0)
        env, rm = cloud.env, cloud.resource_manager
        settle(cloud, 2.0)
        fm = rm.manager(0)
        cloud.fabric.detach(0)
        env.run(until=env.now + 3 * MONITOR_PERIOD_SECONDS)
        assert fm.health is FpgaHealth.FAILED
        cloud.fabric.reattach(0)
        # Soft failure + cause cleared: auto-recover (power cycle ~10 s).
        env.run(until=env.now + 20.0)
        assert fm.health is FpgaHealth.HEALTHY
        assert fm.recoveries >= 1

    def test_hard_failure_not_rehabilitated(self):
        cloud = make_cloud(0)
        env, rm = cloud.env, cloud.resource_manager
        settle(cloud, 2.0)
        fm = rm.manager(0)
        fm.mark_failed("board fried", hard=True)
        env.run(until=env.now + 30.0)
        assert fm.health is FpgaHealth.FAILED

    def test_role_hang_escalates_and_recovers(self):
        cloud = ConfigurableCloud(
            topology=TopologyConfig(background=idle()), seed=1)
        cloud._rm = ResourceManager(
            cloud.env, cloud.fabric.topology, lease_duration=30.0,
            sweep_period=1.0, quarantine_seconds=2.0)
        cloud.add_server(0, shell_config=ShellConfig(with_ltl=False))
        env, rm = cloud.env, cloud.resource_manager
        shell = cloud.shell(0)
        shell.scrubber = SeuScrubber(env, rng=random.Random(1))
        settle(cloud, 2.0)
        fm = rm.manager(0)
        shell.scrubber.inject_flip(role_hang=True)
        env.run(until=env.now + 3 * MONITOR_PERIOD_SECONDS)
        assert fm.health in (FpgaHealth.DEGRADED, FpgaHealth.FAILED)
        env.run(until=env.now + 20.0)
        assert fm.health is FpgaHealth.HEALTHY
        assert not shell.scrubber.role_hung

    def test_gray_reports_escalate_at_threshold(self):
        cloud = make_cloud(0)
        env, rm = cloud.env, cloud.resource_manager
        settle(cloud, 2.0)
        fm = rm.manager(0)
        fm.report_gray()
        assert fm.health is FpgaHealth.HEALTHY  # one report: benign
        fm.report_gray()
        assert fm.health is not FpgaHealth.HEALTHY  # 2 within window
        env.run(until=env.now + 20.0)
        assert fm.health is FpgaHealth.HEALTHY  # recovered after cycle

    def test_gray_reports_outside_window_ignored(self):
        cloud = make_cloud(0)
        env, rm = cloud.env, cloud.resource_manager
        settle(cloud, 2.0)
        fm = rm.manager(0)
        fm.report_gray()
        env.run(until=env.now + 2 * fm.gray_report_window)
        fm.report_gray()
        assert fm.health is FpgaHealth.HEALTHY

    def test_health_transitions_recorded(self):
        cloud = make_cloud(0)
        env, rm = cloud.env, cloud.resource_manager
        settle(cloud, 2.0)
        fm = rm.manager(0)
        fm.mark_failed("test", hard=False)
        env.run(until=env.now + 20.0)
        states = [(old, new) for _, old, new, _ in fm.transitions]
        assert (FpgaHealth.HEALTHY, FpgaHealth.FAILED) in states
        assert states[-1][1] is FpgaHealth.HEALTHY


class TestRmCrashRecovery:
    def test_restart_replays_journal_and_bumps_epoch(self):
        cloud = make_cloud(0, 1, 2, lease=60.0)
        env, rm = cloud.env, cloud.resource_manager
        settle(cloud, 2.0)
        sm = ServiceManager(env, "svc", rm, IMAGE)
        sm.grow(2)
        held = sorted(sm.hosts)
        rm.crash()
        assert rm.crashed
        with pytest.raises(ServerUnavailable):
            rm.acquire("probe", Constraints(count=1))
        recovered = rm.restart()
        assert recovered == 2
        assert rm.epoch == 2
        # Same hosts, same lease ids — replayed, not re-granted.
        for host in held:
            assert rm.is_allocated(host)
        for lease in sm.leases:
            assert rm.renew(lease) == env.now  # the RM still honors them
        # Post-restart grants come from the new epoch's id space.
        fresh = rm.acquire("other", Constraints(count=1))
        assert fresh.lease_id // EPOCH_STRIDE == 2
        assert fresh.rm_epoch == 2

    def test_restart_reconciles_host_that_died_while_down(self):
        cloud = make_cloud(0, 1, lease=60.0, quarantine=5.0)
        env, rm = cloud.env, cloud.resource_manager
        settle(cloud, 2.0)
        sm = ServiceManager(env, "svc", rm, IMAGE)
        lease = sm.grow(1)[0]
        victim = lease.hosts[0]
        rm.crash()
        cloud.fabric.detach(victim)  # the host dies during the outage
        fm = rm.manager(victim)
        env.run(until=env.now + 3 * MONITOR_PERIOD_SECONDS)
        assert fm.health is FpgaHealth.FAILED
        rm.restart()
        # Replay recovered the lease, reconciliation then revoked it:
        # the dead host must not come back allocated.
        assert not rm.is_allocated(victim)
        assert rm.in_quarantine(victim)
        assert rm.stats.revocations == 1

    def test_double_crash_and_restart_are_idempotent(self):
        cloud = make_cloud(0)
        rm = cloud.resource_manager
        rm.crash()
        rm.crash()            # no-op, not an error
        assert rm.restart() == 0
        assert rm.restart() == 0  # already up: no second epoch bump
        assert rm.stats.crashes == 1
        assert rm.stats.restarts == 1

    def test_sweeper_idles_while_crashed(self):
        cloud = make_cloud(0, lease=1.0, sweep=0.2)
        env, rm = cloud.env, cloud.resource_manager
        lease = rm.acquire("svc", Constraints(count=1))
        rm.crash()
        env.run(until=lease.expires_at + 2.0)
        assert rm.stats.expirations == 0  # a dead RM expires nothing
        rm.restart()
        env.run(until=env.now + 1.0)
        # The recovered lease is past due: the first live sweep acts.
        assert rm.stats.expirations == 1
