"""The scale sweep: idle LTL pings across the full-size fabric.

Runs a set of ping tasks (:class:`PingTask`) as one
:class:`~repro.core.cloud.ConfigurableCloud` on one
:class:`~repro.sim.kernel.Environment`, and reports each tier's RTT
samples.  ``benchmarks/bench_scale.py`` sweeps it over the paper's
253,440-host fabric.  Every packet takes the real fabric end to end:
only the active hosts and the switches on their paths are built.

Every component draws from streams named under the global seed, so a
run is a pure function of (workload, seed).
"""

from __future__ import annotations

import hashlib
import struct
from dataclasses import dataclass
from typing import Dict, Sequence

from ..core.cloud import ConfigurableCloud
from ..core.metrics import LatencyRecorder
from ..fpga.shell import Shell
from ..sim.kernel import Environment

#: Every ping task's send interval and payload size: the low-rate
#: request/ACK round trips of the paper's Fig. 10 methodology.
PING_GAP = 100e-6
PING_PAYLOAD_BYTES = 64


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
