"""Sharded multi-process simulation (conservative time windows).

Runs one logical datacenter simulation as N shard processes, each owning
a disjoint set of racks (TORs) with its own :class:`Environment` and
SHA-256-derived child RNG streams.  Shards synchronize with a
conservative window protocol: every shard simulates the same time
window, then all exchange the boundary frames produced in it, then the
next window starts.

**Partitioning.** Hosts are partitioned by TOR: all hosts under one TOR
land in the same shard, so same-rack traffic never crosses a shard seam
and every cross-shard packet traverses at least the L1 tier.

**Lookahead.** The window protocol is correct as long as no frame sent
inside a window can arrive inside the same window.  The bound is the
minimum un-simulated path latency across any seam: propagation plus
switch forwarding delays from the sender's TOR uplink to the receiver's
QSFP (serialization and queueing jitter only add to it).  With hosts
partitioned by TOR that minimum is the same-pod cross-TOR path
(~2.8 us) when a pod is split between shards, and the cheapest
cross-pod path otherwise; :func:`compute_lookahead` reads it off
:meth:`BoundaryPathModel.min_delay` for one pair that attains it.
Windows advance adaptively: the next window ends at
``min(next unsimulated event across all shards) + lookahead``, so idle
stretches between paced messages cost one barrier, not thousands.

**The seam.** Outbound cross-shard packets are captured at the source
host's fabric attachment — before they enter the (source-local) switch
tree — and shipped to the owning shard between windows as they are: a
:class:`BoundaryRecord` holds the captured
:class:`~repro.net.packet.Packet` itself, and the worker pipe's
pickling is its only serialization.  The receiving LTL engine verifies
every frame's CRC, as on the real fabric.  Sharded workloads carry no
trace context.  The destination shard models the full network path
analytically (:class:`BoundaryPathModel`): the deterministic component
sum of the real per-hop models plus shard-local background-jitter
draws.  This is exact for an uncongested fabric (the Fig. 10
idle-latency regime); cross-shard congestion (shared queue buildup,
PFC, ECN on seam paths) is *not* modeled — shard within a congestion
domain if that matters.

**Determinism.** Every component derives its streams by name from the
global seed, so a shard's event sequence is a pure function of
(spec, seed) — per-shard digests are bit-stable across runs.  Boundary
jitter is drawn from a per-shard stream; it matches the single-process
run in distribution, not draw-for-draw, so merged percentiles agree
within tolerance rather than exactly.  Note that two shards touching
the same pod derive identical jitter streams for their copies of that
pod's L1 switch — marginals are unaffected, but cross-shard samples
through shared aggregation tiers are correlated.
"""

from __future__ import annotations

import hashlib
import multiprocessing as mp
import struct
import traceback
from dataclasses import dataclass
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

from ..core.cloud import ConfigurableCloud
from ..core.metrics import LatencyRecorder
from ..fpga.shell import Shell
from ..ltl.connection import ReceiveConnectionState, SendConnectionState
from ..net.addressing import host_index_to_coords, mac_to_host_index
from ..net.dcqcn import DcqcnRateController
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

    ``inf`` for a single shard (no seam: one process, no windows
    needed).  Otherwise it is :meth:`BoundaryPathModel.min_delay` of one
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
# Boundary records
# ----------------------------------------------------------------------
@dataclass
class BoundaryRecord:
    """One captured cross-shard packet, shipped as it is."""

    send_time: float
    src: int
    dst: int
    packet: Packet


# ----------------------------------------------------------------------
# Worker-side world
# ----------------------------------------------------------------------
@dataclass
class ShardSpec:
    """Everything a shard worker needs to build its world."""

    shard_id: int
    seed: int
    local_hosts: List[int]
    host_to_shard: Dict[int, int]
    #: The global, ordered task list.  Its (src, dst) pairs are also the
    #: LTL connection list: every shard replays the same allocation
    #: sequence, so connection ids agree across the seam without any
    #: control-plane exchange.
    workload: List[PingTask]


class ShardWorld:
    """One shard's simulation: a :class:`ConfigurableCloud` restricted
    to the shard's hosts, with seam capture and injection attached.

    Usable in-process (tests drive several worlds by hand) or inside a
    worker process via :func:`_worker_main`.
    """

    def __init__(self, spec: ShardSpec):
        self.spec = spec
        self.cloud = ConfigurableCloud(seed=spec.seed)
        self.env: Environment = self.cloud.env
        self.outbox: List[BoundaryRecord] = []
        self.local = set(spec.local_hosts)
        #: Remote hosts this shard holds an LTL connection with.
        self.boundary_peers: set = set()
        self.boundary_sent = 0
        self.boundary_received = 0
        self.path = BoundaryPathModel(
            self.cloud.fabric.config, spec.seed,
            rng=self.cloud.streams.stream(
                f"shard:{spec.shard_id}:boundary"))
        for host in sorted(self.local):
            self.cloud.add_server(host, enroll=False)
            self._capture(host)
        self._establish_connections()
        for task in spec.workload:
            if task.src in self.local:
                self.env.process(
                    _ping(self.env, self.cloud.shell(task.src), task),
                    name=f"ping-{task.src}-{task.dst}")

    # -- seam capture ---------------------------------------------------
    def _capture(self, host: int) -> None:
        """Divert packets bound for non-local hosts into the outbox."""
        attachment = self.cloud.shell(host).attachment
        original = attachment.send
        env = self.env
        local = self.local
        outbox = self.outbox

        def send(packet, _original=original, _host=host):
            dst = mac_to_host_index(packet.eth.dst_mac)
            if dst in local:
                return _original(packet)
            packet.created_at = env.now  # as Attachment.send stamps it
            outbox.append(BoundaryRecord(env.now, _host, dst, packet))
            self.boundary_sent += 1
            return True

        attachment.send = send

    def inject(self, records: Sequence[BoundaryRecord]) -> None:
        """Schedule incoming boundary packets, unchanged, for local
        delivery.

        The arrival time is the record's send time plus one sampled
        seam-path traversal; by the lookahead invariant it is never in
        the shard's past.
        """
        dispatch = self.cloud.fabric._dispatch
        for record in records:
            if record.dst not in self.local:
                raise ValueError(
                    f"record for host {record.dst} routed to shard "
                    f"{self.spec.shard_id}")
            packet = record.packet
            arrival = record.send_time + self.path.delay(
                record.src, record.dst, packet.wire_bytes)
            self.env.call_at(arrival, dispatch, record.dst, packet)
            self.boundary_received += 1

    def drain_outbox(self) -> List[BoundaryRecord]:
        out, self.outbox[:] = list(self.outbox), ()
        return out

    # -- deterministic connection establishment -------------------------
    def _establish_connections(self) -> None:
        """Replay the global ``connect_pair`` allocation sequence.

        Every shard walks the same ordered task list, one vc-0
        connection per task, and advances one allocation counter per
        engine — local engines get real table entries, remote ones just
        advance their shadow counter.  Fresh
        :class:`~repro.ltl.connection.ConnectionTable` allocation is
        sequential from 0, so the shadow ids equal the ids the owning
        shard installs, and frames crossing the seam carry connection
        ids the receiver already has in its tables.
        """
        send_ctr: Dict[int, int] = {}
        recv_ctr: Dict[int, int] = {}

        def alloc(counters: Dict[int, int], host: int) -> int:
            i = counters.get(host, 0)
            counters[host] = i + 1
            return i

        for task in self.spec.workload:
            a, b = task.src, task.dst
            # Allocation order matches repro.ltl.engine.connect_pair:
            # recv@b, send@a, recv@a, send@b.
            recv_b = alloc(recv_ctr, b)
            send_a = alloc(send_ctr, a)
            recv_a = alloc(recv_ctr, a)
            send_b = alloc(send_ctr, b)
            cross = self.spec.host_to_shard.get(a) != \
                self.spec.host_to_shard.get(b)
            for (local_host, remote_host, my_send, my_recv,
                 peer_send) in ((a, b, send_a, recv_a, send_b),
                                (b, a, send_b, recv_b, send_a)):
                if local_host not in self.local:
                    continue
                shell = self.cloud.shell(local_host)
                if shell.ltl is None:
                    raise RuntimeError(
                        f"host {local_host} has no LTL block")
                peer_recv = recv_b if local_host == a else recv_a
                shell.ltl.recv_table.install(
                    my_recv, ReceiveConnectionState(
                        connection_id=my_recv, remote_host=remote_host,
                        remote_connection_id=peer_send))
                shell.ltl.send_table.install(
                    my_send, SendConnectionState(
                        connection_id=my_send, remote_host=remote_host,
                        remote_connection_id=peer_recv,
                        dcqcn=DcqcnRateController(
                            shell.ltl.config.dcqcn)))
                shell._send_conns[remote_host] = my_send
                if cross:
                    self.boundary_peers.add(remote_host)

    # -- results --------------------------------------------------------
    def run_window(self, until: float) -> None:
        self.env.run(until=until)

    def peek(self) -> float:
        return self.env.peek()

    def collect(self) -> Dict[str, Any]:
        """Per-shard metrics: per-tier recorders + a stability digest."""
        topo = self.cloud.fabric.topology
        tiers: Dict[str, LatencyRecorder] = {}
        digest = hashlib.sha256()
        sample_count = 0
        for task in self.spec.workload:
            if task.src not in self.local:
                continue
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
            "shard_id": self.spec.shard_id,
            "tiers": tiers,
            "samples": sample_count,
            "digest": digest.hexdigest(),
            "events_processed": self.env.events_processed,
            "boundary_sent": self.boundary_sent,
            "boundary_received": self.boundary_received,
        }


def _worker_main(conn, spec: ShardSpec) -> None:
    """Child-process loop: build the world, serve window commands."""
    try:
        world = ShardWorld(spec)
        conn.send(("ready", spec.shard_id))
        while True:
            message = conn.recv()
            command = message[0]
            if command == "window":
                _, until, records = message
                world.inject(records)
                world.run_window(until)
                conn.send(("done", spec.shard_id, world.peek(),
                           world.drain_outbox()))
            elif command == "finish":
                conn.send(("result", world.collect()))
                return
            else:
                raise ValueError(f"unknown command {command!r}")
    except BaseException:
        try:
            conn.send(("error", traceback.format_exc()))
        except Exception:
            pass
        raise


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
    boundary_records: int = 0

    @property
    def events_processed(self) -> int:
        return sum(s["events_processed"] for s in self.per_shard)

    @property
    def total_samples(self) -> int:
        return sum(s["samples"] for s in self.per_shard)


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


def _active_hosts(workload: Sequence[PingTask]) -> List[int]:
    return sorted({t.src for t in workload} | {t.dst for t in workload})


class ShardDriver:
    """Launch shard workers, run the window protocol, merge metrics."""

    def __init__(self, seed: int = 0, num_shards: int = 4):
        self.seed = seed
        self.num_shards = num_shards

    def run(self, workload: Sequence[PingTask]) -> ShardResult:
        if not workload:
            raise ValueError("empty workload")
        validate_workload(workload)
        horizon = _workload_horizon(workload)
        config = TopologyConfig()
        plan = plan_shards(config, _active_hosts(workload), self.num_shards)
        lookahead = compute_lookahead(config, plan, self.seed)
        specs = [ShardSpec(
            shard_id=shard, seed=self.seed, local_hosts=plan.hosts[shard],
            host_to_shard=plan.host_to_shard, workload=list(workload))
            for shard in range(plan.num_shards)]

        if plan.num_shards == 1:
            # Degenerate partition: no seam, no processes to spawn.
            world = ShardWorld(specs[0])
            world.run_window(horizon)
            per_shard = [world.collect()]
            return ShardResult(
                tiers=_merge_tiers(per_shard),
                per_shard=per_shard, plan=plan, lookahead=lookahead,
                windows=1, horizon=horizon)

        ctx = mp.get_context()
        pipes, workers = [], []
        try:
            for spec in specs:
                parent, child = ctx.Pipe()
                worker = ctx.Process(
                    target=_worker_main, args=(child, spec),
                    name=f"shard-{spec.shard_id}", daemon=True)
                worker.start()
                child.close()
                pipes.append(parent)
                workers.append(worker)
            for pipe in pipes:
                self._expect(pipe, "ready")

            pending: List[List[BoundaryRecord]] = \
                [[] for _ in range(plan.num_shards)]
            peeks = [0.0] * plan.num_shards
            now = 0.0
            windows = 0
            boundary_records = 0
            while now < horizon:
                bound = min(min(peeks), min(
                    (record.send_time + lookahead
                     for batch in pending for record in batch),
                    default=_INF))
                if bound == _INF:
                    break  # globally idle: nothing will ever happen
                until = min(horizon, max(bound, now) + lookahead)
                for shard, pipe in enumerate(pipes):
                    pipe.send(("window", until, pending[shard]))
                    pending[shard] = []
                for pipe in pipes:
                    reply = self._expect(pipe, "done")
                    _tag, shard, peek, outbox = reply
                    peeks[shard] = peek
                    for record in outbox:
                        dst_shard = plan.host_to_shard.get(record.dst)
                        if dst_shard is None:
                            raise ValueError(
                                f"boundary record for inactive host "
                                f"{record.dst}")
                        pending[dst_shard].append(record)
                        boundary_records += 1
                now = until
                windows += 1

            per_shard = []
            for pipe in pipes:
                pipe.send(("finish",))
            for pipe in pipes:
                per_shard.append(self._expect(pipe, "result")[1])
            per_shard.sort(key=lambda s: s["shard_id"])
        finally:
            for pipe in pipes:
                pipe.close()
            for worker in workers:
                worker.join(timeout=30)
                if worker.is_alive():
                    worker.terminate()
                    worker.join()

        return ShardResult(
            tiers=_merge_tiers(per_shard),
            per_shard=per_shard, plan=plan, lookahead=lookahead,
            windows=windows, horizon=horizon,
            boundary_records=boundary_records)

    @staticmethod
    def _expect(pipe, tag: str):
        reply = pipe.recv()
        if reply[0] == "error":
            raise RuntimeError(f"shard worker failed:\n{reply[1]}")
        if reply[0] != tag:
            raise RuntimeError(
                f"protocol violation: expected {tag!r}, got {reply[0]!r}")
        return reply


def validate_workload(workload: Sequence[PingTask]) -> None:
    """RTT attribution requires one measured task per source engine."""
    sources = [t.src for t in workload]
    if len(sources) != len(set(sources)):
        raise ValueError("each host may be the source of only one "
                         "PingTask (RTT samples are per source engine)")


# ----------------------------------------------------------------------
# Single-process reference
# ----------------------------------------------------------------------
def run_reference(workload: Sequence[PingTask], seed: int = 0
                  ) -> Dict[str, LatencyRecorder]:
    """The same workload in one process, on the real fabric end to end.

    The comparison baseline for sharded runs: identical topology, seed
    derivation, connection order and ping schedule — the only
    difference is that no path is replaced by the analytic seam model.
    """
    validate_workload(workload)
    cloud = ConfigurableCloud(seed=seed)
    for host in _active_hosts(workload):
        cloud.add_server(host, enroll=False)
    for task in workload:
        cloud.connect(task.src, task.dst)

    env = cloud.env
    for task in workload:
        env.process(_ping(env, cloud.shell(task.src), task),
                    name=f"ping-{task.src}-{task.dst}")
    env.run(until=_workload_horizon(workload))

    topo = cloud.fabric.topology
    tiers: Dict[str, LatencyRecorder] = {}
    for task in workload:
        tier = topo.tier_between(task.src, task.dst)
        recorder = tiers.get(tier)
        if recorder is None:
            recorder = tiers[tier] = LatencyRecorder(tier)
        recorder.extend(cloud.shell(task.src).ltl.rtt_samples())
    return tiers
