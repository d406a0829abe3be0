"""The benchmark's four workloads, each driven only through public calls.

Every workload is a class whose constructor is the set-up (build the
cloud, servers, connections and taps), whose :meth:`slices` generator is
the timed part (first simulated event to last), and whose :meth:`outcome`
checks the outputs and collects the simulated counters afterwards.
Inputs come only from the model seed; the same seed gives bit-identical
counters.

:meth:`slices` advances the simulation in fixed windows of simulated
time and yields after each, so the benchmark can time every window
separately.  Repeated bounded ``Environment.run`` calls are exactly
equivalent to one long run, so slicing does not change the simulation.

``size`` scales the amount of work in one repetition; the smoke test
runs every workload at a tiny size.
"""

from __future__ import annotations

import random
import statistics
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro import ConfigurableCloud, LtlConfig, ShellConfig, TopologyConfig
from repro.crypto import EncryptionTap, FlowKey
from repro.experiments.fig10 import DEFAULT_TIER_PAIRS
from repro.net import EcnConfig, TrafficClass, idle
from repro.net.dcqcn import DcqcnConfig
from repro.ranking import (AccelerationMode, RankingServer,
                           RankingServiceConfig, saturation_qps)
from repro.sim import Environment

#: Model seed of each workload at ``--seed 0``: the seed its paper
#: experiment uses.  ``--seed n`` runs the model with ``base + n``.
BASE_SEEDS = {"fabric_idle": 10, "fabric_incast": 55,
              "ranking_remote": 0, "flow_crypto": 9}


@dataclass
class Outcome:
    """What one repetition produced, after its output checks."""

    attempted: int
    failed: int
    #: Simulated latency of every completed operation (microseconds).
    latencies_us: List[float]
    #: Deterministic simulated counters, named as the per-layer metrics.
    counters: Dict[str, float]
    #: One line per failed output check.
    problems: List[str] = field(default_factory=list)


def _windows(env: Environment, span: float, count: int):
    """Advance ``env`` by ``span`` in ``count`` equal windows, yielding
    after each one."""
    start = env.now
    for k in range(1, count + 1):
        env.run(until=start + span * k / count)
        yield


class _CloudWorkload:
    """Counters shared by the workloads built on ``ConfigurableCloud``."""

    cloud: ConfigurableCloud

    def counters(self) -> Dict[str, float]:
        cloud = self.cloud
        topo = cloud.fabric.topology
        shells = [server.shell for server in cloud.servers.values()]
        switches = {}
        for host in cloud.servers:
            c = topo.coords(host)
            for switch in (topo.tor(c.pod, c.tor), topo.l1(c.pod), topo.l2()):
                switches[switch.name] = switch
        ports = [shell.attachment.uplink for shell in shells]
        ports += [port for switch in switches.values()
                  for port in switch.ports.values()]
        routers = [shell.er.stats for shell in shells]
        engines = [shell.ltl for shell in shells if shell.ltl is not None]
        ltl = [engine.stats for engine in engines]
        return {
            "sim.events": cloud.env.events_processed,
            "router.cycles": sum(r.cycles for r in routers),
            "router.flits": sum(r.flits_switched for r in routers),
            "router.stall_cycles": sum(r.injection_stall_cycles
                                       for r in routers),
            "net.packets_tx": sum(p.stats.transmitted for p in ports),
            "net.drops": sum(p.stats.dropped for p in ports),
            "net.ecn_marked": sum(s.stats.ecn_marked
                                  for s in switches.values()),
            "net.pfc_pauses": sum(s.stats.pfc_pause_sent
                                  for s in switches.values()),
            "net.rate_cuts": sum(state.dcqcn.rate_cuts for engine in engines
                                 for state in engine.send_table.values()),
            "ltl.frames_sent": sum(s.frames_sent for s in ltl),
            "ltl.retransmits": sum(s.retransmissions for s in ltl),
            "ltl.timeouts": sum(s.timeouts for s in ltl),
            "ltl.nacks": sum(s.nacks_sent for s in ltl),
        }


class FabricIdle(_CloudWorkload):
    """E6 / Fig. 10: idle LTL pings over the 14 tier pairs, one pair at a
    time, one 64-B message per 100 us.  Operation: one LTL round trip."""

    GAP = 100e-6
    PAYLOAD = 64
    #: Paper averages (seconds) and the Fig. 10 benchmark's tolerances.
    PAPER_AVG = {"L0": (2.88e-6, 0.03), "L1": (7.72e-6, 0.05),
                 "L2": (18.71e-6, 0.12)}
    L2_MAX = 23.5e-6

    def __init__(self, seed: int, size: int = 100, recorder=None):
        self.messages = size
        self.recorder = recorder
        self.cloud = ConfigurableCloud(seed=seed)
        self.pairs = []
        for tier, (_reach, pairs) in DEFAULT_TIER_PAIRS.items():
            for src, dst in pairs:
                for host in (src, dst):
                    self.cloud.add_server(host, enroll=False)
                self.cloud.connect(src, dst)
                self.pairs.append((tier, src, dst))
        self.delivered = [0] * len(self.pairs)
        self._spans = {}
        for index, (_tier, _src, dst) in enumerate(self.pairs):
            self.cloud.shell(dst).role_receive = self._receiver(index)

    def _receiver(self, index: int):
        def receive(payload, _length):
            self.delivered[index] += 1
            if self.recorder is not None:
                self.recorder.complete(self._spans.pop(payload),
                                       self.cloud.env.now)
        return receive

    def slices(self):
        env = self.cloud.env
        for index, (_tier, src, dst) in enumerate(self.pairs):
            shell = self.cloud.shell(src)

            def pinger(env, shell=shell, dst=dst, index=index):
                for seq in range(self.messages):
                    ctx = None
                    if self.recorder is not None:
                        ctx = self._spans[(index, seq)] = \
                            self.recorder.start(env.now)
                    shell.remote_send(dst, (index, seq), self.PAYLOAD,
                                      trace=ctx)
                    yield env.timeout(self.GAP)

            env.process(pinger(env))
            env.run(until=env.now + self.messages * self.GAP + 5e-3)
            yield

    def outcome(self) -> Outcome:
        tiers: Dict[str, List[float]] = {tier: [] for tier in self.PAPER_AVG}
        senders = {src: tier for tier, src, _dst in self.pairs}
        for src, tier in senders.items():
            tiers[tier].extend(self.cloud.shell(src).ltl.rtt_samples())
        attempted = len(self.pairs) * self.messages
        samples = [rtt for values in tiers.values() for rtt in values]
        failed = attempted - min(len(samples), sum(self.delivered))
        problems = []
        if failed:
            problems.append(f"{failed} of {attempted} round trips missing")
        avg = {tier: statistics.mean(values) if values else float("inf")
               for tier, values in tiers.items()}
        for tier, (paper, tolerance) in self.PAPER_AVG.items():
            if abs(avg[tier] - paper) > tolerance * paper:
                failed += len(tiers[tier])
                problems.append(f"{tier} average RTT {avg[tier] * 1e6:.3f} us "
                                f"outside {tolerance:.0%} of "
                                f"{paper * 1e6:.2f} us")
        if tiers["L2"] and max(tiers["L2"]) >= self.L2_MAX:
            failed += len(tiers["L2"])
            problems.append(f"L2 max RTT {max(tiers['L2']) * 1e6:.3f} us "
                            f">= {self.L2_MAX * 1e6:.1f} us")
        if not avg["L0"] < avg["L1"] < avg["L2"]:
            failed = attempted
            problems.append("tier averages not ordered L0 < L1 < L2")
        return Outcome(attempted, min(failed, attempted),
                       [rtt * 1e6 for rtt in samples], self.counters(),
                       problems)


class FabricIncast(_CloudWorkload):
    """A4 / §V-A: six senders burst 1400-B messages at one receiver on
    the droppable ECN class with DC-QCN on.  Operation: one delivered
    message, timed from the burst to its delivery."""

    SENDERS = 6
    MESSAGE_BYTES = 1400
    #: Bursts per repetition, and the simulated time between their starts.
    BURSTS = 3
    BURST_GAP = 5e-3
    #: A burst's traffic is over within ~150 us of simulated time, and
    #: the ERs switch most of it in the first 15 us, so that stretch is
    #: timed in 2-us windows and the rest of the gap in one.
    BUSY = 300e-6
    BUSY_WINDOWS = 150
    HORIZON = 2.0

    def __init__(self, seed: int, size: int = 50, recorder=None):
        self.messages = size
        self.recorder = recorder
        topology = TopologyConfig(
            background=idle(),
            ecn=EcnConfig(kmin_bytes=3 * 1024, kmax_bytes=16 * 1024,
                          pmax=0.5))
        self.cloud = ConfigurableCloud(topology=topology, seed=seed)
        dcqcn = DcqcnConfig(cnp_min_interval=20e-6,
                            cnp_generation_interval=20e-6,
                            increase_period=150e-6)

        def shell_config():
            return ShellConfig(
                ltl=LtlConfig(congestion_control=True, window_frames=8,
                              max_consecutive_timeouts=10 ** 6,
                              dcqcn=dcqcn),
                ltl_traffic_class=TrafficClass.BEST_EFFORT)

        receiver = self.cloud.add_server(0, enroll=False,
                                         shell_config=shell_config())
        self.senders = [self.cloud.add_server(1 + i, enroll=False,
                                              shell_config=shell_config())
                        for i in range(self.SENDERS)]
        coords = self.cloud.fabric.topology.coords(0)
        tor = self.cloud.fabric.topology.tor(coords.pod, coords.tor)
        tor.ports[0].queue_capacity_bytes = 32 * 1024
        for sender in self.senders:
            sender.shell.connect_to(receiver.shell)
        self.delivered: Dict[tuple, float] = {}
        self.duplicates = 0
        self._spans = {}
        self.burst_at: List[float] = []
        receiver.shell.role_receive = self._receive

    def _receive(self, payload, _length) -> None:
        now = self.cloud.env.now
        if payload in self.delivered:
            self.duplicates += 1
            return
        self.delivered[payload] = now
        if self.recorder is not None:
            self.recorder.complete(self._spans.pop(payload), now)

    def slices(self):
        env = self.cloud.env

        def bursts(env):
            for burst in range(self.BURSTS):
                self.burst_at.append(env.now)
                for sender in self.senders:
                    for seq in range(self.messages):
                        key = (burst, sender.host_index, seq)
                        ctx = None
                        if self.recorder is not None:
                            ctx = self._spans[key] = \
                                self.recorder.start(env.now)
                        sender.shell.remote_send(0, key, self.MESSAGE_BYTES,
                                                 trace=ctx)
                yield env.timeout(self.BURST_GAP)

        env.process(bursts(env))
        for _ in range(self.BURSTS):
            yield from _windows(env, self.BUSY, self.BUSY_WINDOWS)
            yield from _windows(env, self.BURST_GAP - self.BUSY, 1)
        self.cloud.run(until=self.HORIZON)

    def outcome(self) -> Outcome:
        attempted = self.BURSTS * self.SENDERS * self.messages
        counters = self.counters()
        failed = attempted - len(self.delivered)
        problems = []
        if failed:
            problems.append(f"{failed} of {attempted} messages undelivered")
        if self.duplicates:
            failed += self.duplicates
            problems.append(f"{self.duplicates} duplicate deliveries")
        if counters["net.rate_cuts"] <= 0:
            failed = attempted
            problems.append("DC-QCN made no rate cuts")
        latencies = [(t - self.burst_at[key[0]]) * 1e6
                     for key, t in self.delivered.items()]
        return Outcome(attempted, min(failed, attempted), latencies,
                       counters, problems)


class RankingRemote:
    """E7 / Fig. 11: remote-FPGA ranking under a Poisson open loop at
    Fig. 11's 1.5x load point.  Operation: one steady-state query.

    The open loop is ``repro.ranking.run_open_loop``'s own body, written
    out so the benchmark can read the environment's event count.
    """

    LOAD = 1.5
    WARMUP = 0.1
    #: Timed windows over the arrivals; the drain after them is one more.
    WINDOWS = 40

    def __init__(self, seed: int, size: int = 12000, recorder=None):
        del recorder  # no fabric runs here, so there is nothing to trace
        self.queries = size
        software = RankingServiceConfig(mode=AccelerationMode.SOFTWARE)
        self.rate = self.LOAD * 0.9 * saturation_qps(software)
        config = RankingServiceConfig(mode=AccelerationMode.REMOTE_FPGA)
        self.env = Environment()
        self.arrivals = random.Random(seed)
        self.server = RankingServer(self.env, config,
                                    rng=random.Random(seed + 1))

    def slices(self):
        env, server = self.env, self.server

        def generator(env):
            for _ in range(self.queries):
                env.process(server.handle_query())
                yield env.timeout(self.arrivals.expovariate(self.rate))

        env.process(generator(env))
        yield from _windows(env, self.queries / self.rate, self.WINDOWS)
        env.run()

    def outcome(self) -> Outcome:
        warmup = int(self.queries * self.WARMUP)
        attempted = self.queries - warmup
        samples = self.server.latency.samples[warmup:]
        failed = attempted - len(samples)
        problems = []
        if self.server.completed != self.queries:
            failed = max(failed, self.queries - self.server.completed)
            problems.append(f"{self.server.completed} of {self.queries} "
                            "queries completed")
        counters = {"sim.events": self.env.events_processed,
                    "ranking.queries": self.server.completed}
        return Outcome(attempted, min(failed, attempted),
                       [s * 1e6 for s in samples], counters, problems)


class FlowCrypto(_CloudWorkload):
    """E5 / §IV: 1200-B packets every 5 us through two bump-in-the-wire
    ``EncryptionTap``s running real AES-GCM.  Operation: one packet
    delivered as the original plaintext."""

    PACKET_BYTES = 1200
    GAP = 5e-6

    def __init__(self, seed: int, size: int = 12, recorder=None):
        del recorder  # host-to-host packets carry no LTL trace context
        rng = random.Random(seed)
        self.cloud = ConfigurableCloud(seed=seed)
        self.a = self.cloud.add_server(0, enroll=False)
        self.b = self.cloud.add_server(1, enroll=False)
        self.tap_a, self.tap_b = EncryptionTap(), EncryptionTap()
        self.tap_a.install(self.a.shell.bridge)
        self.tap_b.install(self.b.shell.bridge)
        key = rng.randbytes(16)
        flow = FlowKey.of_packet(self.packet(b""))
        self.tap_a.flows.setup_flow(flow, key)
        self.tap_b.flows.setup_flow(flow, key)
        self.payloads = [rng.randbytes(self.PACKET_BYTES)
                         for _ in range(size)]
        self.sent_at: List[float] = []
        self.received: List[tuple] = []
        self.b.on_packet(lambda p: self.received.append(
            (p.payload, self.cloud.env.now)))

    def packet(self, payload: bytes):
        return self.a.shell.attachment.make_packet(
            1, payload, src_port=9000, dst_port=9001)

    def slices(self):
        env = self.cloud.env

        def sender(env):
            for payload in self.payloads:
                self.sent_at.append(env.now)
                self.a.nic_send(self.packet(payload))
                yield env.timeout(self.GAP)

        env.process(sender(env))
        end = env.now + len(self.payloads) * self.GAP + 1e-3
        # Four windows per packet put its encryption and its decryption
        # in windows of their own.
        yield from _windows(env, len(self.payloads) * self.GAP,
                            4 * len(self.payloads))
        self.cloud.run(until=end)

    def outcome(self) -> Outcome:
        attempted = len(self.payloads)
        ok = sum(1 for (got, _t), sent in zip(self.received, self.payloads)
                 if got == sent)
        failed = attempted - ok
        problems = []
        if failed:
            problems.append(f"{failed} of {attempted} packets not delivered "
                            "as the original plaintext")
        if self.tap_b.auth_failures:
            failed = attempted
            problems.append(f"{self.tap_b.auth_failures} auth failures")
        if not self.tap_a.encrypted == self.tap_b.decrypted == attempted:
            failed = attempted
            problems.append(f"{self.tap_a.encrypted} packets encrypted and "
                            f"{self.tap_b.decrypted} decrypted of {attempted}")
        latencies = [(t - sent) * 1e6 for (_p, t), sent
                     in zip(self.received, self.sent_at)]
        return Outcome(attempted, min(failed, attempted), latencies,
                       self.counters(), problems)


WORKLOADS = {"fabric_idle": FabricIdle, "fabric_incast": FabricIncast,
             "ranking_remote": RankingRemote, "flow_crypto": FlowCrypto}


def build(name: str, seed: int, size: Optional[int] = None, recorder=None):
    """Set up workload ``name`` for benchmark seed ``seed``."""
    cls = WORKLOADS[name]
    kwargs = {} if size is None else {"size": size}
    return cls(BASE_SEEDS[name] + seed, recorder=recorder, **kwargs)
