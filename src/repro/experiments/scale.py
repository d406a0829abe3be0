"""The scale sweep: idle LTL pings across the full-size fabric.

Runs a set of ping tasks (:class:`PingTask`) as one
:class:`~repro.core.cloud.ConfigurableCloud` on one
:class:`~repro.sim.kernel.Environment`, and reports each tier's RTT
samples.  The table entry ``scale`` sweeps 512 Fig. 10-style pairs
(:func:`build_workload`) over the paper's 253,440-host fabric ("more
than a quarter million"), twice, and claims every tier is sampled, the
L2 tier stays inside the paper's 23.5 us envelope and the two sweeps
give the same digest.  Every packet takes the real fabric end to end:
only the active hosts and the switches on their paths are built.

Every component draws from streams named under the global seed, so a
run is a pure function of (workload, seed).
"""

from __future__ import annotations

import hashlib
import struct
from dataclasses import dataclass
from typing import Dict, List, Sequence

from ..core.cloud import ConfigurableCloud
from ..core.metrics import LatencyRecorder
from ..fpga.shell import Shell
from ..net.topology import TopologyConfig
from ..sim.kernel import Environment
from .harness import Table, claim

TITLE = "scale sweep — idle LTL pings across the 253,440-host fabric"
SEED = 17

#: Every ping task's send interval and payload size: the low-rate
#: request/ACK round trips of the paper's Fig. 10 methodology.
PING_GAP = 100e-6
PING_PAYLOAD_BYTES = 64

#: The sweep: sender/receiver pairs per tier, and pings per pair.
L0_PAIRS = 4
L1_PAIRS = 48
L2_PAIRS = 460
MESSAGES = 40

#: Paper: "L2 latency never exceeded 23.5 us in any of our experiments."
L2_MAX_SECONDS = 23.5e-6
#: The sweep must cover the paper's >100k-host scale.
MIN_REACHABLE_HOSTS = 100_000


@dataclass(frozen=True)
class PingTask:
    """One measured sender: ``messages`` LTL pings to ``dst``, one every
    :data:`PING_GAP` from time zero, over a vc-0 connection.

    Matches the paper's Fig. 10 methodology — low-rate request/ACK
    round trips, RTT taken inside LTL.  Each source host must appear in
    at most one task (RTT samples are collected per source engine).
    """

    src: int
    dst: int
    messages: int = 60


def validate_workload(workload: Sequence[PingTask]) -> None:
    """RTT attribution requires one measured task per source engine."""
    sources = [t.src for t in workload]
    if len(sources) != len(set(sources)):
        raise ValueError("each host may be the source of only one "
                         "PingTask (RTT samples are per source engine)")


def _ping(env: Environment, shell: Shell, task: PingTask):
    """Process body: the pings of ``task``, sent from ``shell``."""
    payload = bytes(PING_PAYLOAD_BYTES)
    for _ in range(task.messages):
        shell.remote_send(task.dst, payload, PING_PAYLOAD_BYTES)
        yield env.timeout(PING_GAP)


@dataclass
class PingResult:
    """Per-tier RTT samples of one run, and what the run cost."""

    tiers: Dict[str, LatencyRecorder]
    #: SHA-256 over every task's (src, dst) and RTT samples, in task order.
    digest: str
    events_processed: int

    @property
    def total_samples(self) -> int:
        return sum(recorder.count for recorder in self.tiers.values())


def run_pings(workload: Sequence[PingTask], seed: int = 0) -> PingResult:
    """Run ``workload`` on one cloud until its last ping's round trip.

    Each task's two shells are joined with
    :meth:`~repro.fpga.shell.Shell.connect_to` and its pings start in
    task order.
    """
    if not workload:
        raise ValueError("empty workload")
    validate_workload(workload)
    cloud = ConfigurableCloud(seed=seed)
    env, fabric = cloud.env, cloud.fabric
    for host in sorted({t.src for t in workload} | {t.dst for t in workload}):
        cloud.add_server(host, enroll=False)
    for task in workload:
        shell = cloud.shell(task.src)
        shell.connect_to(cloud.shell(task.dst))
        env.process(_ping(env, shell, task))
    # The last ping's send time, plus 2 ms for its round trip.
    env.run(until=max(t.messages for t in workload) * PING_GAP + 2e-3)

    tiers: Dict[str, LatencyRecorder] = {}
    digest = hashlib.sha256()
    for task in workload:
        samples = cloud.shell(task.src).ltl.rtt_samples()
        tier = fabric.topology.tier_between(task.src, task.dst)
        tiers.setdefault(tier, LatencyRecorder(tier)).extend(samples)
        digest.update(struct.pack("!II", task.src, task.dst))
        digest.update(struct.pack(f"!{len(samples)}d", *samples))
    return PingResult(tiers=tiers, digest=digest.hexdigest(),
                      events_processed=env.events_processed)


def build_workload(config: TopologyConfig) -> List[PingTask]:
    """A deterministic Fig. 10-style pair sample across all tiers.

    L0 pairs share rack (0, 0); L1 pairs are cross-rack within a pod
    (pods 1..); L2 pairs stride across the full pod range so the sweep
    touches hosts from index 0 to the top of the 253k-host fabric.
    """
    per_pod = config.hosts_per_pod
    per_tor = config.hosts_per_tor
    tasks: List[PingTask] = []
    for i in range(L0_PAIRS):
        tasks.append(PingTask(src=2 * i, dst=2 * i + 1, messages=MESSAGES))
    pairs_per_pod = config.tors_per_pod // 2
    for i in range(L1_PAIRS):
        pod = 1 + i // pairs_per_pod
        rack = 2 * (i % pairs_per_pod)
        tasks.append(PingTask(
            src=pod * per_pod + rack * per_tor,
            dst=pod * per_pod + (rack + 1) * per_tor + 1,
            messages=MESSAGES))
    for i in range(L2_PAIRS):
        # Within-rack offsets 8/9 keep L2 endpoints clear of the L0/L1
        # hosts above; (pod, rack) combos repeat only after
        # lcm(pods/2, tors_per_pod) pairs, far beyond the sweep size.
        src_pod = (2 * i) % config.pods
        dst_pod = (2 * i + 1) % config.pods
        src = src_pod * per_pod + (i % config.tors_per_pod) * per_tor + 8
        dst = dst_pod * per_pod + \
            ((i + 13) % config.tors_per_pod) * per_tor + 9
        tasks.append(PingTask(src=src, dst=dst, messages=MESSAGES))
    return tasks


def run() -> Dict[str, object]:
    config = TopologyConfig()
    workload = build_workload(config)
    result = run_pings(workload, SEED)
    # Determinism: a second run of the same sweep must give a
    # bit-identical digest.
    digests_stable = run_pings(workload, SEED).digest == result.digest

    metrics: Dict[str, object] = {
        "hosts_reachable": config.total_hosts,
        "hosts_active": len({t.src for t in workload}
                            | {t.dst for t in workload}),
        "pairs": len(workload),
        "events_processed": result.events_processed,
        "rtt_samples": result.total_samples,
        "digests_stable": digests_stable,
        "digest": result.digest,
    }
    for tier, recorder in sorted(result.tiers.items()):
        metrics[f"{tier}_count"] = recorder.count
        if recorder.count:
            metrics[f"{tier}_p50_us"] = round(recorder.p50 * 1e6, 4)
            metrics[f"{tier}_p99_us"] = round(recorder.p99 * 1e6, 4)
            metrics[f"{tier}_max_us"] = round(recorder.max * 1e6, 4)
    return metrics


def rows(metrics: Dict[str, object]):
    sweep = ("hosts_reachable", "hosts_active", "pairs", "rtt_samples",
             "events_processed")
    return [Table("scale — the sweep", sweep,
                  [[metrics[name] for name in sweep]]),
            Table("scale — LTL round-trip latency per tier (us)",
                  ("tier", "count", "p50", "p99", "max"),
                  [(tier, *(metrics.get(f"{tier}_{column}", "-")
                            for column in ("count", "p50_us", "p99_us",
                                           "max_us")))
                   for tier in ("L0", "L1", "L2")]),
            f"digest: {metrics['digest']}\n"
            f"digests_stable: {metrics['digests_stable']}\n"
            "paper: L2 latency never exceeded 23.5 us, over 250k+ hosts"]


def check(metrics: Dict[str, object]) -> None:
    # The sweep spans the paper's scale ("more than a quarter million").
    claim('metrics["hosts_reachable"] >= MIN_REACHABLE_HOSTS')
    # Every tier produced samples, and L2 stayed inside the paper's
    # envelope.
    claim('"L0_p50_us" in metrics',
          '"L1_p50_us" in metrics',
          '"L2_p50_us" in metrics',
          'metrics["L2_max_us"] <= L2_MAX_SECONDS * 1e6')
    # The second sweep gave the same digest.
    claim('metrics["digests_stable"]')
