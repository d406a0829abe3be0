"""Control-plane soak — the lease-based HaaS control plane (§V-F) under
RM crashes and network partitions.

Three seeded phases against the crash-recoverable, fenced RM/SM/FM:

* **soak** — two heartbeat-kept services on a lossy, delayed RPC seam
  ride out a §II-B fault campaign mixed with ``RM_CRASH`` and
  ``NETWORK_PARTITION`` events.  Claims: service availability >= 99%,
  RM recovery (crash -> journal replay -> serving again) within one
  sweep period, and a clean journal audit (zero double-allocations,
  zero stale-fence admissions, every revocation remedied).
* **exactly-once** — a service grown and churned over a channel with
  heavy loss *and* duplication: the RM's idempotency tables must make
  retried/duplicated ``acquire``/``release`` exactly-once in effect
  (dedup hits observed, audit finds no token granted twice).
* **split-brain** — an SM stranded behind a partition outlives its
  lease; the RM fences its hosts and re-leases them; the stale side's
  late configure/traffic must be *rejected by the FpgaManager's fence
  check* (rejections observed, zero stale admissions), and the stranded
  SM must re-acquire capacity after the partition heals.
"""

import random
from typing import Dict, List

from ..core.cloud import ConfigurableCloud
from ..faults import (CampaignConfig, FaultEvent, FaultInjector,
                      FaultKind, generate_campaign)
from ..fpga.reconfig import Image
from ..fpga.shell import ShellConfig
from ..haas.audit import audit_journal
from ..haas.constraints import Constraints
from ..haas.resource_manager import ResourceManager
from ..haas.rpc import RpcConfig
from ..haas.service_manager import ServiceManager
from ..net.latency import idle
from ..net.topology import TopologyConfig
from .harness import Table, claim

TITLE = "control-plane soak — RM crashes, partitions, lossy RPC, fencing"

#: The soak's service availability floor.
AVAILABILITY_MIN = 0.99
#: RM recovery (restart -> first successful acquire) must fit inside
#: one expiry-sweep period.
RM_RECOVERY_MAX_SWEEPS = 1.0

IMAGE = Image(name="cp-soak", role_name="cp-soak-role")

#: Pool spread across three TORs so a TOR outage cannot drain a service.
POOL = list(range(0, 6)) + list(range(24, 30)) + list(range(48, 54))

LEASE_SECONDS = 15.0
SWEEP_SECONDS = 0.25
QUARANTINE_SECONDS = 3.0
HEARTBEAT_SECONDS = 2.0
COMPONENTS_PER_SM = 4
SAMPLE_PERIOD = 0.25
SOAK_SECONDS = 75.0
DRAIN_SECONDS = 35.0
#: Shrink/grow rounds of the exactly-once drill.
CHURN_ROUNDS = 4

#: Lossy-but-realistic seam for the soak: milliseconds of delay, a few
#: percent loss/duplication — every call still completes via retries.
SOAK_RPC = dict(loss_probability=0.05, duplicate_probability=0.05,
                delay=1e-3, delay_jitter=1e-3,
                call_timeout=0.25, max_retries=8,
                backoff_max=0.4)

#: Scales §II-B per-machine-day rates up to a one-minute soak; the
#: control-plane kinds are pinned on top via the fill-missing pass.
PAPER_SCALE = 1.2e7

#: The kinds this soak exercises: the host-scoped §II-B core plus the
#: control-plane trio.  (Traffic-scoped frame faults live in the chaos
#: soak, :mod:`.chaos_soak` — this pool carries no LTL traffic to tap.)
CONTROL_SOAK_KINDS = (
    FaultKind.FPGA_DEATH, FaultKind.LINK_FLAP, FaultKind.ROLE_HANG,
    FaultKind.TOR_OUTAGE, FaultKind.CONTROL_STALL, FaultKind.RM_CRASH,
    FaultKind.NETWORK_PARTITION,
)

CAMPAIGN_SHAPES = dict(
    flap_duration=1.5,
    tor_outage_duration=3.0,
    control_stall_duration=20.0,     # > lease: forces real expiry
    rm_crash_duration=1.5,           # ~3 sweep periods of RM outage
    # < the 15 s lease: renews fail but no lease expires, so nothing
    # stale reaches a fence (the split-brain drill tests the fence).
    partition_duration=8.0,
)

#: Each phase's table title, in :func:`run`'s order.
PHASES = ("soak — §II-B mix plus RM crashes and partitions, lossy RPC",
          "exactly-once — 25% loss, 35% duplication",
          "split-brain — a partitioned SM outlives its lease")


def control_cloud(seed: int, hosts, lease=LEASE_SECONDS,
                  sweep=SWEEP_SECONDS, quarantine=QUARANTINE_SECONDS):
    """Control-plane-only cloud: shells without LTL (no 10 us timer
    wheel), RM journaled with fast lease/sweep for sim-seconds runs."""
    cloud = ConfigurableCloud(
        topology=TopologyConfig(background=idle()), seed=seed)
    cloud._rm = ResourceManager(cloud.env, cloud.fabric.topology,
                                lease_duration=lease, sweep_period=sweep,
                                quarantine_seconds=quarantine)
    for host in hosts:
        cloud.add_server(host, shell_config=ShellConfig(with_ltl=False))
    return cloud


def soak_campaign(horizon: float) -> List[FaultEvent]:
    """Seeded campaign over CONTROL_SOAK_KINDS, then guarantee the
    control-plane kinds actually fire (a short draw can miss the rare
    ones, and the soak's whole point is to exercise them)."""
    config = CampaignConfig.scaled_from_paper(PAPER_SCALE,
                                              **CAMPAIGN_SHAPES)
    config.rates = {kind: rate for kind, rate in config.rates.items()
                    if kind in CONTROL_SOAK_KINDS}
    events = generate_campaign(POOL, horizon - 12.0, config, seed=17)
    rng = random.Random(170)
    want = {FaultKind.RM_CRASH: 1, FaultKind.NETWORK_PARTITION: 2,
            FaultKind.CONTROL_STALL: 1, FaultKind.FPGA_DEATH: 1}
    have: Dict[FaultKind, int] = {}
    for event in events:
        have[event.kind] = have.get(event.kind, 0) + 1
    at = 6.0
    for kind, minimum in want.items():
        for _ in range(max(0, minimum - have.get(kind, 0))):
            shape = config.event_shape(kind)
            target = -1 if kind in (FaultKind.RM_CRASH,
                                    FaultKind.NETWORK_PARTITION,
                                    FaultKind.CONTROL_STALL) \
                else rng.choice(POOL)
            events.append(FaultEvent(at=at, kind=kind, target=target,
                                     **shape))
            at += 9.0
    events.sort(key=lambda e: (e.at, e.kind.value, e.target))
    return events


def run_soak() -> Dict[str, float]:
    cloud = control_cloud(seed=11, hosts=POOL)
    env = cloud.env
    rm = cloud.resource_manager

    sms = []
    for i, name in enumerate(("svc-a", "svc-b")):
        sm = ServiceManager(env, name, rm, IMAGE,
                            constraints=Constraints(count=1),
                            retry_backoff=0.25, retry_backoff_max=4.0,
                            rpc_config=RpcConfig(**SOAK_RPC),
                            rpc_seed=100 + i)
        sm.grow(COMPONENTS_PER_SM)
        sm.start_heartbeat(HEARTBEAT_SECONDS)
        sms.append(sm)
    env.run(until=4.0)  # initial async grows settle

    samples: List[float] = []

    def sampler(env):
        while True:
            yield env.timeout(SAMPLE_PERIOD)
            for sm in sms:
                samples.append(min(1.0, len(sm.hosts)
                                   / float(COMPONENTS_PER_SM)))

    env.process(sampler(env))

    injector = FaultInjector(cloud, POOL, service_managers=sms, seed=5)
    events = soak_campaign(SOAK_SECONDS)
    for event in events:
        event.at += env.now
    injector.run_campaign(events)
    env.run(until=env.now + SOAK_SECONDS + DRAIN_SECONDS)

    summary = injector.summary()
    crash_recoveries = [
        r.recovered_at - (r.injected_at + r.event.duration)
        for r in injector.records
        if r.event.kind is FaultKind.RM_CRASH
        and r.recovered_at is not None and "elided" not in r.note]
    report = audit_journal(rm.journal, tail_grace=DRAIN_SECONDS,
                           end_time=env.now)
    availability = sum(samples) / len(samples) if samples else 0.0
    return {
        "soak_availability": round(availability, 5),
        "soak_faults_injected": summary["injected"],
        "soak_faults_recovered": summary["recovered"],
        "rm_crashes": len(crash_recoveries),
        "rm_recovery_max_s": round(max(crash_recoveries), 4)
        if crash_recoveries else 0.0,
        "rm_recovery_budget_s": SWEEP_SECONDS * RM_RECOVERY_MAX_SWEEPS,
        "soak_audit_violations": len(report.violations),
        "soak_double_allocations": report.double_allocations,
        "soak_stale_admits": report.stale_admits,
        "soak_fence_rejections": report.fence_rejections,
        "soak_epochs_seen": report.epochs_seen,
        "soak_journal_records": len(rm.journal),
        "soak_grants": report.grants,
        "soak_revocations": report.revocations,
        "soak_expirations": report.expirations,
    }


def run_exactly_once() -> Dict[str, float]:
    hosts = list(range(0, 12))
    cloud = control_cloud(seed=23, hosts=hosts, lease=30.0)
    env = cloud.env
    rm = cloud.resource_manager
    # A brutal seam: a quarter of all legs lost, a third duplicated.
    sm = ServiceManager(env, "flaky-svc", rm, IMAGE,
                        constraints=Constraints(count=1),
                        retry_backoff=0.25, retry_backoff_max=2.0,
                        rpc_config=RpcConfig(
                            loss_probability=0.25,
                            duplicate_probability=0.35,
                            delay=1e-3, delay_jitter=2e-3,
                            call_timeout=0.2, max_retries=10),
                        rpc_seed=7)
    target = 8
    sm.grow(target)
    # Renews ride the same brutal seam: without the heartbeat the 30 s
    # leases would expire mid-drill and the final tally would measure
    # replacement races, not idempotency.
    sm.start_heartbeat(5.0)
    env.run(until=15.0)
    # Churn: give half back, then re-grow — releases must dedup too.
    sm.shrink(4)
    env.run(until=20.0)
    sm.grow(4)
    for _ in range(CHURN_ROUNDS):
        env.run(until=env.now + 10.0)
        sm.shrink(2)
        sm.grow(2)
    env.run(until=env.now + 15.0)

    report = audit_journal(rm.journal, require_replacement=False)
    rpc = sm.channel.stats
    return {
        "eo_active_components": len(sm.hosts),
        "eo_target_components": target,
        "eo_rm_allocated": rm.allocated_count,
        "eo_acquire_dedup_hits": rm.stats.deduped_acquires,
        "eo_release_dedup_hits": rm.stats.deduped_releases,
        "eo_rpc_retries": rpc.retries,
        "eo_rpc_duplicates": rpc.requests_duplicated,
        "eo_rpc_lost_legs": rpc.requests_lost + rpc.responses_lost,
        "eo_audit_violations": len(report.violations),
        "eo_dedup_violations": report.dedup_violations,
        "eo_double_allocations": report.double_allocations,
    }


def run_split_brain() -> Dict[str, float]:
    hosts = [0, 1, 2, 3, 4]
    cloud = control_cloud(seed=31, hosts=hosts, lease=4.0, sweep=0.5,
                          quarantine=1.0)
    env = cloud.env
    rm = cloud.resource_manager
    # Each SM holds *copies* of its grants, as a real process would: the
    # RM's expiry of A's lease never reaches A's local view, which
    # leaves a stale side for the fence to stop.
    drill_rpc = RpcConfig(delay=2e-4)
    sm_a = ServiceManager(env, "stranded", rm, IMAGE,
                          constraints=Constraints(count=1),
                          retry_backoff=0.25, retry_backoff_max=2.0,
                          rpc_config=drill_rpc, rpc_seed=41)
    sm_b = ServiceManager(env, "healthy", rm, IMAGE,
                          constraints=Constraints(count=1),
                          retry_backoff=0.25, retry_backoff_max=2.0,
                          rpc_config=drill_rpc, rpc_seed=42)
    sm_a.grow(1)
    sm_b.grow(1)
    sm_a.start_heartbeat(1.0)
    sm_b.start_heartbeat(1.0)
    env.run(until=2.0)

    stale = sm_a.leases[0]
    stranded_host = stale.hosts[0]
    stale_fence = stale.fence
    # Strand A: no renews out, no revocation pushes in, for 12 s —
    # three lease lifetimes.
    sm_a.channel.partition_for(12.0)
    env.run(until=10.0)
    # By now A's lease expired at the RM (last renew ~2 s + 4 s lease,
    # swept by ~6.5 s) and its hosts carry a fence barrier.  B expands
    # into the freed capacity — possibly onto A's old host.
    sm_b.grow(3)
    env.run(until=11.0)
    reallocated = rm.is_allocated(stranded_host)

    # The stale side acts: in-flight traffic and configure carrying the
    # superseded fence arrive at the FpgaManager.  The configure's
    # rejection is counted apart from the traffic's.
    manager = rm.manager(stranded_host)
    admitted = manager.admit_traffic(stale_fence)
    rejections_before = manager.fence_rejections
    env.process(manager.configure(IMAGE, fence=stale_fence))
    env.run(until=12.0)
    configure_rejected = manager.fence_rejections > rejections_before

    # Heal; A's next heartbeat renew gets KeyError -> replacement.
    env.run(until=20.0)
    report = audit_journal(rm.journal, require_replacement=False)
    return {
        "sb_host_reallocated": int(reallocated),
        "sb_stale_configure_rejected": int(configure_rejected),
        "sb_stale_traffic_admitted": int(admitted),
        "sb_fence_rejections": manager.fence_rejections,
        "sb_stranded_recovered_components": len(sm_a.hosts),
        "sb_audit_violations": len(report.violations),
        "sb_stale_admits": report.stale_admits,
    }


def run():
    return run_soak(), run_exactly_once(), run_split_brain()


def rows(result):
    return [Table(title, ("metric", "value"), phase.items())
            for title, phase in zip(PHASES, result)]


def check(result) -> None:
    metrics = {name: value for phase in result
               for name, value in phase.items()}

    # The services rode out the campaign, RM crashes and partitions
    # included; a crash really happened and the RM restarted into a new
    # epoch, serving again within one sweep period.
    claim('metrics["soak_availability"] >= AVAILABILITY_MIN',
          'metrics["rm_crashes"] >= 1',
          'metrics["soak_epochs_seen"] >= 2',
          'metrics["rm_recovery_max_s"] <= metrics["rm_recovery_budget_s"]')

    # Every phase's journal audits clean, and no stale fence was ever
    # admitted (no split brain).
    claim('metrics["soak_audit_violations"] == 0',
          'metrics["eo_audit_violations"] == 0',
          'metrics["sb_audit_violations"] == 0',
          'metrics["soak_stale_admits"] == 0',
          'metrics["sb_stale_admits"] == 0')

    # The seam really retried and duplicated, the RM's idempotency
    # tokens absorbed it, and RM and SM agree on the target count.
    claim('metrics["eo_rpc_retries"] > 0',
          'metrics["eo_rpc_duplicates"] > 0',
          'metrics["eo_acquire_dedup_hits"] >= 1',
          'metrics["eo_active_components"] == '
          'metrics["eo_target_components"]',
          'metrics["eo_rm_allocated"] == metrics["eo_active_components"]')

    # The FpgaManager fenced off the stale side, and the stranded SM
    # won capacity back once the partition healed.
    claim('metrics["sb_stale_configure_rejected"]',
          'not metrics["sb_stale_traffic_admitted"]',
          'metrics["sb_stranded_recovered_components"] >= 1')
