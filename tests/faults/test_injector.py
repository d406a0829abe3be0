"""End-to-end tests for the FaultInjector: each primitive attacks a
live cloud + hardware service and must be detected and recovered by the
system's own machinery."""

from repro import ConfigurableCloud, LtlConfig, ShellConfig
from repro.core.service import HardwareService
from repro.faults import FaultEvent, FaultInjector, FaultKind
from repro.fpga.reconfig import Image
from repro.haas import FpgaHealth, ResourceManager
from repro.net import TopologyConfig, idle

# ms-scale LTL timers: tests run tens of sim-seconds; the production
# 10 us timer wheel would cost ~10^7 events per scenario.
FAST_LTL = dict(timer_period=1e-3, retransmit_timeout=5e-3,
                reconnect_backoff=10e-3, reconnect_backoff_max=100e-3,
                degraded_timeouts=2)
POOL = list(range(8))
CLIENT = 30  # second TOR: outages on TOR 0 never cut the client off


def build(lease=30.0, sweep=1.0, quarantine=2.0, components=2):
    cloud = ConfigurableCloud(
        topology=TopologyConfig(background=idle()), seed=7)
    cloud._rm = ResourceManager(cloud.env, cloud.fabric.topology,
                                lease_duration=lease, sweep_period=sweep,
                                quarantine_seconds=quarantine)
    shell_config = ShellConfig(ltl=LtlConfig(**FAST_LTL))
    for h in POOL:
        cloud.add_server(h, shell_config=shell_config)
    client = cloud.add_server(CLIENT, enroll=False,
                              shell_config=shell_config)
    service = HardwareService(cloud, "svc",
                              Image(name="svc", role_name="svc-role"),
                              components=components)
    cloud.env.run(until=12.0)  # initial configure

    delivered = []
    service.set_handler(lambda payload, src: delivered.append(payload))
    service.attach_client(client)
    cloud.env.run(until=cloud.env.now + 0.1)
    return cloud, service, client, delivered


def drive(cloud, service, client, seconds, period=0.02):
    sent = [0]

    def driver(env):
        t_end = env.now + seconds
        while env.now < t_end:
            try:
                service.request(client, b"q", 64)
                sent[0] += 1
            except RuntimeError:
                pass
            yield env.timeout(period)

    cloud.env.process(driver(cloud.env), name="test-driver")
    return sent


def attack(kind, post=40.0, target=None, sm=True, **shape):
    """Build, fire one fault at a serving member, drive traffic, and
    return (cloud, service, injector, record, delivered, sent)."""
    cloud, service, client, delivered = build()
    env = cloud.env
    injector = FaultInjector(
        cloud, hosts=POOL,
        service_managers=[service.sm] if sm else [], seed=1)
    if target is None:
        victim = service.hosts[0]
    elif target == "free":
        victim = [h for h in POOL if h not in service.hosts][-1]
    else:
        victim = target
    event = FaultEvent(at=env.now + 0.5, kind=kind, target=victim,
                       **shape)
    injector.run_campaign([event])
    sent = drive(cloud, service, client, 15.0)
    env.run(until=env.now + 15.0 + post)
    return cloud, service, injector, injector.records[0], delivered, sent


class TestFpgaDeath:
    def test_allocated_host_detected_and_replaced(self):
        cloud, service, inj, rec, delivered, sent = attack(
            FaultKind.FPGA_DEATH)
        assert rec.detected_at is not None
        assert rec.recovered_at is not None
        assert service.failovers >= 1
        # The dead host left the serving set; capacity was restored.
        assert rec.event.target not in service.hosts
        assert len(service.hosts) == 2
        # Nearly everything still delivered (a handful lost in flight).
        assert len(delivered) >= 0.98 * sent[0]

    def test_free_host_evicted_by_monitor(self):
        cloud, service, inj, rec, delivered, _ = attack(
            FaultKind.FPGA_DEATH, target="free", post=20.0)
        victim = rec.event.target
        assert victim not in service.hosts   # was never serving
        assert rec.detected_at is not None   # FM monitor saw the detach
        assert rec.recovered_at == rec.detected_at  # eviction = remedy
        assert cloud.resource_manager.manager(
            victim).health is FpgaHealth.FAILED


class TestLinkFlap:
    def test_flap_detected_then_rehabilitated(self):
        cloud, service, inj, rec, delivered, sent = attack(
            FaultKind.LINK_FLAP, duration=2.0)
        assert rec.detected_at is not None
        assert rec.recovered_at is not None
        # The victim came back HEALTHY (soft failure rehabilitated)...
        fm = cloud.resource_manager.manager(rec.event.target)
        assert fm.health is FpgaHealth.HEALTHY
        # ...and service capacity is intact.
        assert len(service.hosts) == 2
        assert len(delivered) >= 0.98 * sent[0]


class TestGrayNode:
    def test_gray_detected_via_peer_reports(self):
        cloud, service, inj, rec, delivered, sent = attack(
            FaultKind.GRAY_NODE, duration=1.5, magnitude=50e-3)
        assert inj.stats.frames_delayed > 0
        assert service.gray_reports >= 2
        assert rec.detected_at is not None
        assert rec.recovered_at is not None
        assert rec.detection_latency < 2.0  # peer reports beat the scan


class TestFrameTampering:
    def test_corruption_caught_by_checksum_and_masked(self):
        cloud, service, inj, rec, delivered, sent = attack(
            FaultKind.FRAME_CORRUPT, duration=1.0, magnitude=0.5,
            post=10.0)
        assert inj.stats.frames_corrupted > 0
        shell = cloud.shell(rec.event.target)
        assert shell.ltl.stats.corrupt_dropped > 0
        assert rec.resolved
        # Reliability is preserved end to end.
        assert len(delivered) >= 0.98 * sent[0]

    def test_drops_masked_by_retransmission(self):
        cloud, service, inj, rec, delivered, sent = attack(
            FaultKind.FRAME_DROP, duration=1.0, magnitude=0.5,
            post=10.0)
        assert inj.stats.frames_dropped > 0
        assert rec.resolved
        assert len(delivered) >= 0.98 * sent[0]


class TestRoleHang:
    def test_hang_detected_and_power_cycled(self):
        cloud, service, inj, rec, delivered, sent = attack(
            FaultKind.ROLE_HANG)
        shell = cloud.shell(rec.event.target)
        assert shell.scrubber is not None  # lazily created by injector
        assert rec.detected_at is not None
        assert rec.recovered_at is not None
        assert not shell.scrubber.role_hung
        assert len(service.hosts) == 2


class TestTorOutage:
    def test_whole_tor_dark_and_back(self):
        cloud, service, inj, rec, delivered, sent = attack(
            FaultKind.TOR_OUTAGE, duration=3.0, target=POOL[0])
        # Every pool host shares TOR 0 in the default topology.
        assert sorted(rec.affected) == POOL
        assert rec.detected_at is not None
        assert rec.recovered_at is not None
        # All victims rehabilitated after reattach + power cycle.
        for host in POOL:
            assert cloud.resource_manager.manager(host).health \
                is FpgaHealth.HEALTHY


class TestControlStall:
    def test_stall_expires_leases_then_service_reacquires(self):
        cloud, service, client, delivered = build(lease=5.0, sweep=0.5)
        env = cloud.env
        injector = FaultInjector(cloud, hosts=POOL,
                                 service_managers=[service.sm], seed=1)
        event = FaultEvent(at=env.now + 0.5,
                           kind=FaultKind.CONTROL_STALL, duration=12.0)
        injector.run_campaign([event])
        drive(cloud, service, client, 15.0)
        env.run(until=env.now + 60.0)
        rec = injector.records[0]
        assert cloud.resource_manager.stats.expirations > 0
        assert rec.detected_at is not None
        assert rec.recovered_at is not None
        assert service.sm.pending_replacements == 0
        assert len(service.hosts) == 2


class TestSlowPeer:
    def test_limplock_slows_frames_without_tripping_health(self):
        cloud, service, inj, rec, delivered, sent = attack(
            FaultKind.SLOW_PEER, duration=2.0, magnitude=8.0,
            post=10.0)
        assert inj.stats.frames_slowed > 0
        assert rec.resolved
        # Self-closing: the limplock never trips a health check, so
        # the tap removal is the recovery boundary.
        assert rec.recovered_at == rec.detected_at
        # The victim kept serving throughout — no failover fired.
        assert service.failovers == 0
        assert rec.event.target in service.hosts
        # And the slowdown is a delay, not a drop: delivery holds.
        assert len(delivered) >= 0.98 * sent[0]


class TestCampaignDriving:
    def test_events_fire_at_scheduled_times(self):
        cloud, service, client, delivered = build()
        env = cloud.env
        injector = FaultInjector(cloud, hosts=POOL,
                                 service_managers=[service.sm], seed=1)
        t0 = env.now
        events = [
            FaultEvent(at=t0 + 1.0, kind=FaultKind.FRAME_DROP,
                       target=POOL[0], duration=0.5, magnitude=0.2),
            FaultEvent(at=t0 + 2.0, kind=FaultKind.LINK_FLAP,
                       target=POOL[1], duration=1.0),
        ]
        injector.run_campaign(events)
        env.run(until=env.now + 30.0)
        assert [r.injected_at for r in injector.records] == \
            [t0 + 1.0, t0 + 2.0]
        summary = injector.summary()
        assert summary["injected"] == 2
        assert summary["by_kind"] == {"frame_drop": 1, "link_flap": 1}
