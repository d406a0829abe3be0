"""Chaos soak — the §II-B failure mix against a live hardware service.

A pool of FPGAs spread over three TORs serves a hardware service while a
seeded :class:`~repro.faults.FaultInjector` campaign runs the paper's
full failure taxonomy against it at §II-B rates scaled from
machine-months down to a seconds-long soak: silent FPGA deaths, link
flaps, frame corruption and loss at the TOR, gray (slow) nodes, SEU role
hangs, a whole-TOR outage, a control-plane stall long enough to expire
leases and a limplocked peer.  A ranking server then loses its FPGA
mid-run and must keep answering in software.
"""

import random

from ..core.cloud import ConfigurableCloud
from ..core.service import HardwareService
from ..faults import (CampaignConfig, FaultEvent, FaultInjector,
                      FaultKind, generate_campaign)
from ..fpga.reconfig import Image
from ..fpga.shell import ShellConfig
from ..haas.fpga_manager import FpgaHealth
from ..haas.resource_manager import ResourceManager
from ..ltl import LtlConfig
from ..ranking import AccelerationMode, RankingServer, RankingServiceConfig
from .harness import Table, claim, fmt

TITLE = "chaos soak — §II-B failure mix vs one hardware service"

# Control-plane-scale LTL: a seconds-long soak cannot afford the 10 us
# production timer wheel (10^8 sim events); ms-scale timers keep LTL
# detection far faster than the 2 s FM monitor while staying tractable.
SOAK_LTL = dict(timer_period=1e-3, retransmit_timeout=5e-3,
                reconnect_backoff=10e-3, reconnect_backoff_max=100e-3,
                degraded_timeouts=2)

#: Pool spread across three TORs (24 hosts/TOR in the default topology)
#: so a whole-TOR outage cannot take the entire service down.
POOL = list(range(0, 6)) + list(range(24, 30)) + list(range(48, 54))
CLIENT_HOST = 72                      # a fourth TOR; never in the blast
COMPONENTS = 4

SETTLE_SECONDS = 16.0                 # initial configure of the pool
SOAK_SECONDS = 60.0
DRAIN_SECONDS = 45.0                  # power cycles (10 s) + retries
REQUEST_PERIOD = 0.01                 # client offered load, 100 req/s

#: Scales §II-B per-machine-day rates (5,760 servers x 30 days) up to a
#: one-minute soak on 18 hosts: ~3 hard deaths, ~1-2 of each transient
#: kind, a couple of role hangs.
PAPER_SCALE = 2.0e7

CAMPAIGN_SHAPES = dict(
    flap_duration=1.5,
    corrupt_duration=1.0, corrupt_probability=0.3,
    drop_duration=1.0, drop_probability=0.3,
    gray_duration=1.5, gray_delay=50e-3,
    # > the 2 s FM monitor period: even a free (no-LTL-traffic) host's
    # detachment is guaranteed to land inside a scan.
    tor_outage_duration=3.0,
    control_stall_duration=20.0,      # > lease: forces real expiry
)


def build_cloud():
    cloud = ConfigurableCloud(seed=11)
    cloud._rm = ResourceManager(cloud.env, cloud.fabric.topology,
                                lease_duration=15.0, sweep_period=1.0,
                                quarantine_seconds=3.0)
    shell_config = ShellConfig(ltl=LtlConfig(**SOAK_LTL))
    for host in POOL:
        cloud.add_server(host, shell_config=shell_config)
    client = cloud.add_server(
        CLIENT_HOST, enroll=False,
        shell_config=ShellConfig(ltl=LtlConfig(**SOAK_LTL)))
    service = HardwareService(cloud, "soak-svc",
                              Image(name="soak", role_name="soak-role"),
                              components=COMPONENTS)
    return cloud, service, client


#: Kinds whose effect only manifests on a host that carries traffic.
TRAFFIC_KINDS = (FaultKind.FRAME_CORRUPT, FaultKind.FRAME_DROP,
                 FaultKind.GRAY_NODE)

#: The §II-B mix this soak runs (pinned): the control-plane resilience
#: kinds (RM_CRASH, NETWORK_PARTITION) have their own soak in
#: ``benchmarks/bench_control_plane_soak.py``, and excluding them here
#: keeps this soak's seeded campaign, and its availability claim, stable
#: as the taxonomy grows.
SOAK_KINDS = (FaultKind.FPGA_DEATH, FaultKind.LINK_FLAP,
              FaultKind.FRAME_CORRUPT, FaultKind.FRAME_DROP,
              FaultKind.GRAY_NODE, FaultKind.ROLE_HANG,
              FaultKind.TOR_OUTAGE, FaultKind.CONTROL_STALL,
              FaultKind.SLOW_PEER)


def full_mix_campaign(start: float, busy_hosts):
    """Seeded §II-B-rate campaign, then guarantee >= 1 of every kind.

    Rack- and control-plane-scale events are ~10x rarer than per-host
    ones, so a short draw can miss them; the soak must still exercise
    every defense, so missing kinds get one scripted event each.  The
    traffic-scoped kinds additionally get one scripted event aimed at a
    live service member — a random draw may land them on idle hosts
    where nothing crosses the tap.
    """
    config = CampaignConfig.scaled_from_paper(PAPER_SCALE,
                                              **CAMPAIGN_SHAPES)
    config.rates = {kind: rate for kind, rate in config.rates.items()
                    if kind in SOAK_KINDS}
    events = generate_campaign(POOL, SOAK_SECONDS - 10.0, config, seed=3)
    rng = random.Random(99)
    present = {e.kind for e in events}
    # Traffic-scoped events go first, while every service member is
    # still guaranteed live, and each on a *distinct* member: a masked
    # fault still raises gray reports, and a failover triggered by one
    # event would drain the traffic the next tap on that host needs.
    at = 5.0
    victims = rng.sample(sorted(busy_hosts),
                         k=min(len(TRAFFIC_KINDS), len(busy_hosts)))
    for kind, victim in zip(TRAFFIC_KINDS, victims):
        events.append(FaultEvent(at=at, kind=kind, target=victim,
                                 **config.event_shape(kind)))
        at += 2.0
    for kind in SOAK_KINDS:
        if kind not in present:
            shape = config.event_shape(kind)
            target = -1 if kind is FaultKind.CONTROL_STALL \
                else rng.choice(POOL)
            events.append(FaultEvent(at=at, kind=kind, target=target,
                                     **shape))
            at += 4.0
    events.sort(key=lambda e: (e.at, e.kind.value, e.target))
    for e in events:
        e.at += start
    return events


def run_soak():
    cloud, service, client = build_cloud()
    env = cloud.env
    env.run(until=SETTLE_SECONDS)

    delivered = []
    service.set_handler(lambda payload, src: delivered.append(payload))
    service.attach_client(client)
    env.run(until=env.now + 0.5)

    injector = FaultInjector(cloud, hosts=POOL,
                             service_managers=[service.sm], seed=5)
    injector.run_campaign(
        full_mix_campaign(env.now + 2.0, list(service.hosts)))

    attempts = [0]

    def driver(env):
        t_end = env.now + SOAK_SECONDS
        while env.now < t_end:
            attempts[0] += 1
            try:
                service.request(client, b"rank-me", 256)
            except RuntimeError:
                # Pool momentarily empty or the connection just failed:
                # the attempt still counts against availability.
                pass
            yield env.timeout(REQUEST_PERIOD)

    env.process(driver(env), name="soak-driver")
    env.run(until=env.now + SOAK_SECONDS + DRAIN_SECONDS)
    return cloud, service, injector, attempts[0], len(delivered)


def run_ranking_fallback():
    """Ranking keeps answering in software while its FPGA is lost."""
    cloud = ConfigurableCloud(seed=23)
    cloud.add_server(0, shell_config=ShellConfig(
        ltl=LtlConfig(**SOAK_LTL)))
    env = cloud.env
    manager = cloud.resource_manager.manager(0)
    server = RankingServer(
        env, RankingServiceConfig(mode=AccelerationMode.LOCAL_FPGA))
    server.bind_fpga_health(manager)

    issued = [0]

    def load(env):
        for _ in range(400):
            issued[0] += 1
            server.submit()
            yield env.timeout(2e-3)

    def outage(env):
        yield env.timeout(0.2)
        manager.mark_failed("chaos: board lost", hard=False)
        # hard=False + cause cleared -> the FM monitor rehabilitates it.

    env.process(load(env), name="ranking-load")
    env.process(outage(env), name="ranking-outage")
    env.run(until=30.0)
    return server, manager, issued[0]


def run():
    return run_soak(), run_ranking_fallback()


def rows(result):
    (cloud, service, injector, attempts, delivered), \
        (server, manager, issued) = result
    summary = injector.summary()
    det = summary["detection_latency"]
    rec = summary["recovery_latency"]
    return [
        Table("chaos soak — §II-B failure mix vs one hardware service",
              ("kind", "injected"), sorted(summary["by_kind"].items())),
        Table("detection / recovery", ("", "count", "mean s", "max s"),
              [("detection", det["count"], fmt(det.get("mean", 0.0)),
                fmt(det.get("max", 0.0))),
               ("recovery", rec["count"], fmt(rec.get("mean", 0.0)),
                fmt(rec.get("max", 0.0)))]),
        f"requests: {delivered}/{attempts} delivered "
        f"({100 * delivered / attempts:.2f}% availability), "
        f"failovers={service.failovers}, "
        f"gray reports={service.gray_reports}\n"
        f"frames corrupted={summary['frames_corrupted']} "
        f"dropped={summary['frames_dropped']} "
        f"delayed={summary['frames_delayed']}",
        f"ranking under FPGA loss: {server.completed}/{issued} "
        f"queries completed, {server.software_fallbacks} served by "
        f"software fallback; FPGA health={manager.health.value}"]


def check(result) -> None:
    (cloud, service, injector, attempts, delivered), \
        (server, manager, issued) = result
    summary = injector.summary()
    availability = delivered / attempts

    # The service rode out the whole campaign.
    claim("availability >= 0.99")

    # Every injected fault was detected and recovered end to end, by
    # the system's own machinery (LTL checksums/retransmit/reconnect, FM
    # health monitor, RM quarantine + expiry, SM replacement retry).
    claim('summary["injected"] >= len(SOAK_KINDS)',
          'summary["unresolved"] == []',
          'summary["detected"] == summary["injected"]',
          'summary["recovered"] == summary["injected"]')

    # No connection is left permanently failed anywhere.
    for host, node in cloud.servers.items():
        ltl = node.shell.ltl
        if ltl is None or not cloud.fabric.is_attached(host):
            continue
        failed = [s.connection_id for s in ltl.send_table.values()
                  if s.failed]
        claim("not failed")

    # No component stays unreplaced while the pool has spares.
    rm = cloud.resource_manager
    if rm.free_hosts():
        claim("service.sm.pending_replacements == 0",
              "len(service.hosts) == COMPONENTS")

    # The transports really were attacked.
    claim('summary["frames_corrupted"] > 0',
          'summary["frames_dropped"] > 0',
          'summary["frames_delayed"] > 0')

    # Every ranking query completed even though the FPGA died mid-run...
    claim("server.completed == issued")
    # ...because queries fell back to the all-software path...
    claim("server.software_fallbacks > 0")
    # ...and the FM monitor rehabilitated the board afterwards.
    claim("manager.health is FpgaHealth.HEALTHY",
          "server.fpga_available")
