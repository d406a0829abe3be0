"""The scale sweep: idle LTL pings across the full-size fabric.

Runs a set of ping tasks (:class:`PingTask`) as one
:class:`~repro.core.cloud.ConfigurableCloud` on one
:class:`~repro.sim.kernel.Environment`, and reports each tier's RTT
samples.  ``benchmarks/bench_scale.py`` sweeps it over the paper's
253,440-host fabric.

With ``analytic=False`` every packet takes the real fabric end to end:
that run is the reference.  With ``analytic=True`` a packet between
hosts under different TORs skips the switch tree.  It is captured at
the source host's fabric attachment, after LTL tx and MAC tx ran on the
real source shell, and handed as it is to the destination's
``fabric._dispatch`` after one :meth:`BoundaryPathModel.delay` draw, so
MAC rx and LTL rx run on the real destination shell.  Rack-local
packets stay on the real TOR.  The analytic path models an idle fabric:
it sums the real per-hop latencies and draws per-tier background
jitter, but models no queueing at the L1/L2 switches that several
pairs share.  It is checked against the reference only on an idle
fabric.

Every component draws from streams named under the global seed, and the
analytic path draws from its own stream in send order, so a run is a
pure function of (workload, seed, analytic).
"""

from __future__ import annotations

import hashlib
import struct
from dataclasses import dataclass
from typing import Any, Dict, Optional, Sequence, Tuple

from ..core.cloud import ConfigurableCloud
from ..core.metrics import LatencyRecorder
from ..fpga.shell import Shell
from ..net.addressing import host_index_to_coords, mac_to_host_index
from ..net.links import propagation_delay
from ..net.topology import TopologyConfig, pod_distance_m
from ..sim.kernel import Environment
from ..sim.units import serialization_delay

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


class BoundaryPathModel:
    """Analytic latency of the path a cross-TOR packet skips.

    Covers the span from the source host's fabric attachment (packet
    fully formed, MAC tx already paid) to the destination shell's
    TOR-facing delivery point (MAC rx paid there).  The component sum
    matches the real per-hop models — propagation, per-switch forwarding
    latency, per-link serialization — plus one background-jitter draw
    per switch traversal from ``rng``.
    """

    def __init__(self, config: TopologyConfig, seed: int,
                 rng: Optional[Any] = None):
        self.config = config
        self.seed = seed
        self.rng = rng

    def _coords(self, host: int):
        cfg = self.config
        return host_index_to_coords(
            host, cfg.hosts_per_tor, cfg.tors_per_pod)

    def _hops(self, src: int, dst: int
              ) -> Tuple[Tuple[str, ...], Tuple[Tuple[float, float], ...]]:
        """(switch tiers, ((link distance_m, rate_bps), ...)) on the path."""
        lat = self.config.latency
        ca, cb = self._coords(src), self._coords(dst)
        if ca.same_tor(cb):
            raise ValueError(
                f"hosts {src} and {dst} share a TOR; rack-local traffic "
                f"never takes the analytic path")
        host = (lat.host_tor_distance_m, lat.host_rate_bps)
        tor_l1 = (lat.tor_l1_distance_m, lat.tor_uplink_rate_bps)
        if ca.same_pod(cb):
            return (("tor", "l1", "tor"), (host, tor_l1, tor_l1, host))
        up = (pod_distance_m(self.config, self.seed, ca.pod),
              lat.l1_uplink_rate_bps)
        down = (pod_distance_m(self.config, self.seed, cb.pod),
                lat.l1_uplink_rate_bps)
        return (("tor", "l1", "l2", "l1", "tor"),
                (host, tor_l1, up, down, tor_l1, host))

    def _floor(self, tiers: Tuple[str, ...],
               links: Tuple[Tuple[float, float], ...]) -> float:
        lat = self.config.latency
        delay = sum(propagation_delay(d) for d, _rate in links)
        for tier in tiers:
            delay += getattr(lat, f"{tier}_latency")
        return delay

    def min_delay(self, src: int, dst: int) -> float:
        """Deterministic floor of the path: propagation + switch
        forwarding only (serialization and jitter are non-negative
        extras)."""
        return self._floor(*self._hops(src, dst))

    def delay(self, src: int, dst: int, wire_bytes: int) -> float:
        """One sampled traversal: floor + serialization + jitter draws."""
        tiers, links = self._hops(src, dst)
        delay = self._floor(tiers, links)
        for _d, rate in links:
            delay += serialization_delay(wire_bytes, rate)
        background = self.config.background
        if background is not None and self.rng is not None:
            for tier in tiers:
                delay += background.sample(tier, self.rng)
        return delay


@dataclass
class PingResult:
    """Per-tier RTT samples of one run, and what the run cost."""

    tiers: Dict[str, LatencyRecorder]
    #: SHA-256 over every task's (src, dst) and RTT samples, in task order.
    digest: str
    events_processed: int
    #: Packets that took the analytic path (0 with ``analytic=False``).
    analytic_packets: int

    @property
    def total_samples(self) -> int:
        return sum(recorder.count for recorder in self.tiers.values())


def run_pings(workload: Sequence[PingTask], seed: int = 0,
              analytic: bool = True) -> PingResult:
    """Run ``workload`` on one cloud until its last ping's round trip.

    Each task's two shells are joined with
    :meth:`~repro.fpga.shell.Shell.connect_to` and its pings start in
    task order.  ``analytic`` sends cross-TOR packets down the analytic
    path; otherwise every packet takes the real fabric.
    """
    if not workload:
        raise ValueError("empty workload")
    validate_workload(workload)
    cloud = ConfigurableCloud(seed=seed)
    env, fabric = cloud.env, cloud.fabric
    path = BoundaryPathModel(fabric.config, seed,
                             rng=cloud.streams.stream("analytic-path"))
    per_tor = fabric.config.hosts_per_tor
    analytic_packets = 0

    def capture(host: int) -> None:
        """Send ``host``'s cross-TOR packets down the analytic path."""
        attachment = cloud.shell(host).attachment
        original = attachment.send
        tor = host // per_tor

        def send(packet):
            nonlocal analytic_packets
            dst = mac_to_host_index(packet.eth.dst_mac)
            if dst // per_tor == tor:
                return original(packet)
            packet.created_at = env.now  # as Attachment.send stamps it
            analytic_packets += 1
            env.call_later(path.delay(host, dst, packet.wire_bytes),
                           fabric._dispatch, dst, packet)
            return True

        attachment.send = send

    for host in sorted({t.src for t in workload} | {t.dst for t in workload}):
        cloud.add_server(host, enroll=False)
        if analytic:
            capture(host)
    for task in workload:
        shell = cloud.shell(task.src)
        shell.connect_to(cloud.shell(task.dst))
        env.process(_ping(env, shell, task),
                    name=f"ping-{task.src}-{task.dst}")
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
                      events_processed=env.events_processed,
                      analytic_packets=analytic_packets)


def ks_distance(a: Sequence[float], b: Sequence[float]) -> float:
    """Two-sample Kolmogorov–Smirnov distance: the largest gap between
    the empirical CDFs of ``a`` and ``b``."""
    xs, ys = sorted(a), sorted(b)
    if not xs or not ys:
        raise ValueError("both samples must be non-empty")
    i = j = 0
    gap = 0.0
    while i < len(xs) and j < len(ys):
        x = min(xs[i], ys[j])
        while i < len(xs) and xs[i] <= x:
            i += 1
        while j < len(ys) and ys[j] <= x:
            j += 1
        gap = max(gap, abs(i / len(xs) - j / len(ys)))
    return gap
