"""Sharded simulation: one process, one world per shard, an analytic seam.

Runs one logical datacenter simulation as N shard *worlds* in the calling
process, each owning a disjoint set of racks (TORs) with its own
:class:`Environment` and SHA-256-derived child RNG streams.  The worlds
advance under a conservative window protocol: each window, every world
simulates up to the same time, one world after another.

The worlds do not run in parallel.  What sharding saves is simulated
work: a cross-shard packet skips the real switch tree and takes an
analytic seam path (:class:`BoundaryPathModel`) instead, so the 8-shard
``benchmarks/bench_scale.py`` sweep processes about a third of the
events of the one-shard run.  That path is an approximation, checked
against the one-shard run only on an idle fabric.

**Partitioning.** Hosts are partitioned by TOR: all hosts under one TOR
land in the same shard, so same-rack traffic never crosses a shard seam
and every cross-shard packet traverses at least the L1 tier.

**Lookahead.** A packet captured in one world is scheduled in its
destination world at once, at its send time plus one sampled seam-path
traversal, so that arrival must never precede the end of the current
window, which worlds earlier in the loop have already reached.  The
bound is the minimum un-simulated path latency across any seam:
propagation plus switch forwarding from the sender's TOR uplink to the
receiver's QSFP (serialization and jitter only add to it).  With hosts
partitioned by TOR that is the same-pod cross-TOR path (~2.8 us) when a
pod is split between shards, and the cheapest cross-pod path otherwise;
:func:`compute_lookahead` reads it off :meth:`BoundaryPathModel.min_delay`
for one pair that attains it.  Windows advance adaptively: the next
window ends at ``min(next event across all worlds) + lookahead``, so
idle stretches between paced messages cost one window, not thousands.

**The seam.** Outbound cross-shard packets are captured at the source
host's fabric attachment — before they enter the (source-local) switch
tree — and handed to the destination world as they are.  The receiving
LTL engine verifies every frame's CRC, as on the real fabric.  Sharded
workloads carry no trace context.  The destination world models the
full network path analytically: the deterministic component sum of the
real per-hop models plus background-jitter draws from the world's own
stream.  This is exact for an uncongested fabric (the Fig. 10
idle-latency regime); cross-shard congestion (shared queue buildup, PFC,
ECN on seam paths) is *not* modeled — shard within a congestion domain
if that matters.

**Connections.** Each task's two shells are joined with
:meth:`~repro.fpga.shell.Shell.connect_to` in task order, as in a
single world; a cross-shard pair's shells just live in different
worlds.  With one shard there is no seam, and the run is the
real fabric end to end: it is the reference sharded runs are checked
against.

**Determinism.** Every component derives its streams by name from the
global seed, so a world's event sequence is a pure function of (plan,
workload, seed) — per-shard digests are bit-stable across runs.  Each
world draws seam jitter from its own stream, in the order its inbound
packets are captured (world by world within a window); one shared
:class:`Environment` would interleave those draws differently.  The
jitter matches the one-shard run in distribution, not draw-for-draw, so
merged percentiles agree within tolerance rather than exactly.  Two
shards touching the same pod derive identical jitter streams for their
copies of that pod's L1 switch — marginals are unaffected, but
cross-shard samples through shared aggregation tiers are correlated.
"""

from __future__ import annotations

import hashlib
import struct
from dataclasses import dataclass
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

from ..core.cloud import ConfigurableCloud
from ..core.metrics import LatencyRecorder
from ..fpga.shell import Shell
from ..net.addressing import host_index_to_coords, mac_to_host_index
from ..net.links import propagation_delay
from ..net.packet import Packet
from ..net.topology import TopologyConfig, pod_distance_m
from .kernel import Environment
from .units import serialization_delay

_INF = float("inf")

#: Every ping task's send interval and payload size: the low-rate
#: request/ACK round trips of the paper's Fig. 10 methodology.
PING_GAP = 100e-6
PING_PAYLOAD_BYTES = 64


# ----------------------------------------------------------------------
# Workload description
# ----------------------------------------------------------------------
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


def _ping(env: Environment, shell: Shell, task: PingTask):
    """Process body: the pings of ``task``, sent from ``shell``."""
    payload = bytes(PING_PAYLOAD_BYTES)
    for _ in range(task.messages):
        shell.remote_send(task.dst, payload, PING_PAYLOAD_BYTES)
        yield env.timeout(PING_GAP)


# ----------------------------------------------------------------------
# Partitioning
# ----------------------------------------------------------------------
@dataclass
class ShardPlan:
    """TOR-level partition of the active hosts into shards."""

    num_shards: int
    #: (pod, tor) -> shard id, for every TOR holding an active host.
    tor_to_shard: Dict[Tuple[int, int], int]
    #: Per-shard sorted active host lists (disjoint, covering).
    hosts: List[List[int]]
    #: host -> shard for all active hosts.
    host_to_shard: Dict[int, int]

    def shard_of_host(self, host: int) -> int:
        return self.host_to_shard[host]

    def is_boundary(self, a: int, b: int) -> bool:
        return self.host_to_shard[a] != self.host_to_shard[b]


def plan_shards(config: TopologyConfig, active_hosts: Iterable[int],
                num_shards: int) -> ShardPlan:
    """Partition ``active_hosts`` by TOR, round-robin over sorted TORs.

    Every host lands in exactly one shard and all hosts under one TOR
    share a shard (rack-local traffic never crosses a seam).  Shard
    count is clamped to the number of distinct active TORs.
    """
    if num_shards < 1:
        raise ValueError("need at least one shard")
    by_tor: Dict[Tuple[int, int], List[int]] = {}
    for host in sorted(set(active_hosts)):
        if not 0 <= host < config.total_hosts:
            raise ValueError(f"host {host} outside the datacenter")
        coords = host_index_to_coords(
            host, config.hosts_per_tor, config.tors_per_pod)
        by_tor.setdefault((coords.pod, coords.tor), []).append(host)
    if not by_tor:
        raise ValueError("no active hosts to partition")
    num_shards = min(num_shards, len(by_tor))
    tor_to_shard: Dict[Tuple[int, int], int] = {}
    hosts: List[List[int]] = [[] for _ in range(num_shards)]
    host_to_shard: Dict[int, int] = {}
    for i, tor in enumerate(sorted(by_tor)):
        shard = i % num_shards
        tor_to_shard[tor] = shard
        for host in by_tor[tor]:
            hosts[shard].append(host)
            host_to_shard[host] = shard
    return ShardPlan(num_shards=num_shards, tor_to_shard=tor_to_shard,
                     hosts=hosts, host_to_shard=host_to_shard)


# ----------------------------------------------------------------------
# Boundary path physics
# ----------------------------------------------------------------------
class BoundaryPathModel:
    """Analytic latency of the un-simulated path across a shard seam.

    Covers the span the capture skips: from the source host's fabric
    attachment (packet fully formed, MAC tx already paid) to the
    destination shell's TOR-facing delivery point (MAC rx paid there).
    The component sum matches the real per-hop models — propagation,
    per-switch forwarding latency, per-link serialization — plus one
    background-jitter draw per switch traversal from ``rng``.
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
                f"hosts {src} and {dst} share a TOR; TOR-partitioned "
                f"shards never ship rack-local traffic across the seam")
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

    def min_delay(self, src: int, dst: int) -> float:
        """Deterministic floor of the seam path: propagation + switch
        forwarding only (serialization and jitter are non-negative
        extras).  This is what the lookahead bound is built from."""
        lat = self.config.latency
        tiers, links = self._hops(src, dst)
        delay = sum(propagation_delay(d) for d, _rate in links)
        for tier in tiers:
            delay += getattr(lat, f"{tier}_latency")
        return delay

    def delay(self, src: int, dst: int, wire_bytes: int) -> float:
        """One sampled traversal: floor + serialization + jitter draws."""
        tiers, links = self._hops(src, dst)
        delay = self.min_delay(src, dst)
        for _d, rate in links:
            delay += serialization_delay(wire_bytes, rate)
        background = self.config.background
        if background is not None and self.rng is not None:
            for tier in tiers:
                delay += background.sample(tier, self.rng)
        return delay


def compute_lookahead(config: TopologyConfig, plan: ShardPlan,
                      seed: int) -> float:
    """Minimum seam-path latency over the partition's actual seams.

    ``inf`` for a single shard (no seam: one window covers the run).
    Otherwise it is :meth:`BoundaryPathModel.min_delay` of one
    cross-shard pair that attains the minimum.  Every same-pod cross-TOR
    pair has the same floor, the lowest of any seam, so a pod split
    between shards supplies the pair.  With whole pods per shard every
    seam crosses L2 and the floor grows with the two pods' fiber runs:
    the pair joins the nearest pods of the two shards whose nearest pods
    are nearest.
    """
    if plan.num_shards <= 1:
        return _INF
    model = BoundaryPathModel(config, seed)
    first: Dict[int, int] = {}  # pod -> its first host seen
    nearest: Dict[int, Tuple[float, int]] = {}  # shard -> (fiber m, host)
    for shard, hosts in enumerate(plan.hosts):
        for host in hosts:
            pod = host // config.hosts_per_pod
            other = first.setdefault(pod, host)
            if plan.host_to_shard[other] != shard:
                return model.min_delay(other, host)  # a split pod
            if other == host:
                candidate = (pod_distance_m(config, seed, pod), host)
                nearest[shard] = min(nearest.get(shard, candidate),
                                     candidate)
    (_d, a), (_e, b) = sorted(nearest.values())[:2]
    return model.min_delay(a, b)


# ----------------------------------------------------------------------
# Worlds
# ----------------------------------------------------------------------
class ShardWorld:
    """One shard's simulation: a :class:`ConfigurableCloud` restricted
    to the shard's hosts, with its own :class:`Environment` and seam
    capture on every local host.

    ``owner`` maps every active host to its world; :func:`build_worlds`
    fills it once all worlds exist.
    """

    def __init__(self, shard_id: int, seed: int, local_hosts: Sequence[int],
                 owner: Dict[int, ShardWorld]):
        self.shard_id = shard_id
        self.cloud = ConfigurableCloud(seed=seed)
        self.env: Environment = self.cloud.env
        self.local = set(local_hosts)
        #: The tasks whose source is local, in workload order.
        self.tasks: List[PingTask] = []
        self.boundary_sent = 0
        self.boundary_received = 0
        self.path = BoundaryPathModel(
            self.cloud.fabric.config, seed,
            rng=self.cloud.streams.stream(f"shard:{shard_id}:boundary"))
        for host in sorted(self.local):
            self.cloud.add_server(host, enroll=False)
            self._capture(host, owner)

    # -- the seam -------------------------------------------------------
    def _capture(self, host: int, owner: Dict[int, ShardWorld]) -> None:
        """Hand packets bound for another world's host to that world."""
        attachment = self.cloud.shell(host).attachment
        original = attachment.send
        env = self.env
        local = self.local

        def send(packet, _original=original, _host=host):
            dst = mac_to_host_index(packet.eth.dst_mac)
            if dst in local:
                return _original(packet)
            packet.created_at = env.now  # as Attachment.send stamps it
            self.boundary_sent += 1
            owner[dst].arrive(env.now, _host, dst, packet)
            return True

        attachment.send = send

    def arrive(self, send_time: float, src: int, dst: int,
               packet: Packet) -> None:
        """Schedule a packet from another world, unchanged, for local
        delivery.

        The arrival time is the send time plus one sampled seam-path
        traversal; by the lookahead invariant it is never in this
        world's past, and :meth:`Environment.call_at` raises if it is.
        """
        arrival = send_time + self.path.delay(src, dst, packet.wire_bytes)
        self.env.call_at(arrival, self._deliver, dst, packet)

    def _deliver(self, dst: int, packet: Packet) -> None:
        self.boundary_received += 1
        self.cloud.fabric._dispatch(dst, packet)

    # -- results --------------------------------------------------------
    def collect(self) -> Dict[str, Any]:
        """Per-shard metrics: per-tier recorders + a stability digest."""
        topo = self.cloud.fabric.topology
        tiers: Dict[str, LatencyRecorder] = {}
        digest = hashlib.sha256()
        sample_count = 0
        for task in self.tasks:
            samples = self.cloud.shell(task.src).ltl.rtt_samples()
            tier = topo.tier_between(task.src, task.dst)
            recorder = tiers.get(tier)
            if recorder is None:
                recorder = tiers[tier] = LatencyRecorder(tier)
            recorder.extend(samples)
            sample_count += len(samples)
            digest.update(struct.pack("!II", task.src, task.dst))
            digest.update(struct.pack(f"!{len(samples)}d", *samples))
        return {
            "shard_id": self.shard_id,
            "tiers": tiers,
            "samples": sample_count,
            "digest": digest.hexdigest(),
            "events_processed": self.env.events_processed,
            "boundary_sent": self.boundary_sent,
            "boundary_received": self.boundary_received,
        }


def build_worlds(plan: ShardPlan, seed: int,
                 workload: Sequence[PingTask]) -> List[ShardWorld]:
    """One :class:`ShardWorld` per shard of ``plan``, joined and loaded.

    Each task's two shells are joined with
    :meth:`~repro.fpga.shell.Shell.connect_to`, in task order, exactly as
    the one-shard run joins them (a cross-shard pair's shells just live
    in different worlds), and each task's pings start in its source's
    world.
    """
    owner: Dict[int, ShardWorld] = {}
    worlds = [ShardWorld(shard, seed, hosts, owner)
              for shard, hosts in enumerate(plan.hosts)]
    for world in worlds:
        owner.update(dict.fromkeys(world.local, world))
    for task in workload:
        world = owner[task.src]
        shell = world.cloud.shell(task.src)
        shell.connect_to(owner[task.dst].cloud.shell(task.dst))
        world.tasks.append(task)
        world.env.process(_ping(world.env, shell, task),
                          name=f"ping-{task.src}-{task.dst}")
    return worlds


# ----------------------------------------------------------------------
# Driver
# ----------------------------------------------------------------------
@dataclass
class ShardResult:
    """Merged view of one sharded run."""

    tiers: Dict[str, LatencyRecorder]
    per_shard: List[Dict[str, Any]]
    plan: ShardPlan
    lookahead: float
    windows: int
    horizon: float

    @property
    def events_processed(self) -> int:
        return sum(s["events_processed"] for s in self.per_shard)

    @property
    def total_samples(self) -> int:
        return sum(s["samples"] for s in self.per_shard)

    @property
    def boundary_records(self) -> int:
        """Packets that crossed a seam."""
        return sum(s["boundary_sent"] for s in self.per_shard)


def _merge_tiers(per_shard: List[Dict[str, Any]]
                 ) -> Dict[str, LatencyRecorder]:
    merged: Dict[str, LatencyRecorder] = {}
    for result in per_shard:
        for tier, recorder in result["tiers"].items():
            into = merged.get(tier)
            if into is None:
                into = merged[tier] = LatencyRecorder(tier)
            into.merge(recorder)
    return merged


def _workload_horizon(workload: Sequence[PingTask]) -> float:
    """The last ping's send time, plus 2 ms for its round trip."""
    return max(t.messages for t in workload) * PING_GAP + 2e-3


class ShardDriver:
    """Build the shard worlds, run the window protocol, merge metrics."""

    def __init__(self, seed: int = 0, num_shards: int = 4):
        self.seed = seed
        self.num_shards = num_shards

    def run(self, workload: Sequence[PingTask]) -> ShardResult:
        if not workload:
            raise ValueError("empty workload")
        validate_workload(workload)
        horizon = _workload_horizon(workload)
        config = TopologyConfig()
        active = {t.src for t in workload} | {t.dst for t in workload}
        plan = plan_shards(config, active, self.num_shards)
        lookahead = compute_lookahead(config, plan, self.seed)
        worlds = build_worlds(plan, self.seed, workload)

        now = 0.0
        windows = 0
        while now < horizon:
            bound = min(world.env.peek() for world in worlds)
            if bound == _INF:
                break  # globally idle: nothing will ever happen
            until = min(horizon, max(bound, now) + lookahead)
            for world in worlds:
                world.env.run(until=until)
            now = until
            windows += 1

        per_shard = [world.collect() for world in worlds]
        return ShardResult(
            tiers=_merge_tiers(per_shard),
            per_shard=per_shard, plan=plan, lookahead=lookahead,
            windows=windows, horizon=horizon)


def validate_workload(workload: Sequence[PingTask]) -> None:
    """RTT attribution requires one measured task per source engine."""
    sources = [t.src for t in workload]
    if len(sources) != len(set(sources)):
        raise ValueError("each host may be the source of only one "
                         "PingTask (RTT samples are per source engine)")
