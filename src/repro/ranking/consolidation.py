"""FPGA consolidation: multiple ranking servers sharing fewer FPGAs.

Paper §III-A: "Even at these higher loads, the FPGA remains
underutilized, as the software portion of ranking saturates the host
server before the FPGA is saturated.  Having multiple servers drive
fewer FPGAs addresses the underutilization of the FPGAs, which is the
goal of our remote acceleration model."

This module quantifies that: N ranking servers offload feature
extraction to a shared pool of M remote FFU FPGAs (N >= M).  Outputs
per-consolidation-ratio FPGA utilization and query tail latency —
utilization climbs toward saturation as servers-per-FPGA grows while
latency stays flat until the pool itself saturates.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..core.metrics import LatencyRecorder
from ..sim import Environment, Resource
from .ffu import FfuConfig, FfuDpfRole, SoftwareTimingModel, WorkloadModel
from .service import RemoteAccessConfig


@dataclass
class ConsolidationConfig:
    """One consolidation experiment point."""

    num_servers: int = 4
    num_fpgas: int = 2
    cores_per_server: int = 8
    #: Per-server offered load as a fraction of its own software-stage
    #: capacity (the host is the bottleneck, per the paper).
    server_load: float = 0.85
    workload: WorkloadModel = field(default_factory=WorkloadModel)
    software: SoftwareTimingModel = field(
        default_factory=SoftwareTimingModel)
    ffu: FfuConfig = field(default_factory=FfuConfig)
    remote: RemoteAccessConfig = field(default_factory=RemoteAccessConfig)

    @property
    def servers_per_fpga(self) -> float:
        return self.num_servers / self.num_fpgas


@dataclass
class ConsolidationResult:
    """Measured outcome of one point."""

    servers_per_fpga: float
    fpga_utilization: float
    latency: LatencyRecorder
    queries_completed: int

    def row(self) -> Dict[str, float]:
        return {
            "servers_per_fpga": self.servers_per_fpga,
            "fpga_utilization": self.fpga_utilization,
            "p99_ms": self.latency.p99 * 1e3,
            "mean_ms": self.latency.mean * 1e3,
            "completed": float(self.queries_completed),
        }


class _SharedFfuPool:
    """M FFU FPGAs behind join-shortest-queue dispatch."""

    def __init__(self, env: Environment, config: ConsolidationConfig):
        self.env = env
        self.config = config
        self.role = FfuDpfRole(config.ffu)
        self._slots = [Resource(env, capacity=1)
                       for _ in range(config.num_fpgas)]
        self._depth = [0] * config.num_fpgas
        self.busy_time = 0.0

    def _pick(self) -> int:
        best = 0
        for i in range(1, len(self._slots)):
            if self._depth[i] < self._depth[best]:
                best = i
        return best

    def extract(self, work):
        """Process: remote feature extraction for one query."""
        network = self.config.remote.network_time(work.document_bytes)
        index = self._pick()
        self._depth[index] += 1
        yield self.env.timeout(network / 2)
        with self._slots[index].request() as slot:
            yield slot
            compute = self.role.compute_time(work)
            self.busy_time += compute
            yield self.env.timeout(compute)
        self._depth[index] -= 1
        yield self.env.timeout(network / 2)


def run_consolidation_point(config: Optional[ConsolidationConfig] = None,
                            queries_per_server: int = 400,
                            seed: int = 0) -> ConsolidationResult:
    """Simulate N servers sharing M remote FFU FPGAs."""
    config = config or ConsolidationConfig()
    env = Environment()
    pool = _SharedFfuPool(env, config)
    latency = LatencyRecorder("query")
    completed = [0]

    # A server's software-stage capacity (pre + post on its cores).
    software = config.software
    sample_rng = random.Random(seed)
    mean_work = [config.workload.sample(sample_rng) for _ in range(200)]
    mean_core_time = sum(
        software.pre_time(w) + software.post_time(w)
        for w in mean_work) / len(mean_work)
    per_server_qps = config.server_load * config.cores_per_server \
        / mean_core_time

    def query(server_cores, work):
        start = env.now
        with server_cores.request() as core:
            yield core
            yield env.timeout(software.pre_time(work))
        yield env.process(pool.extract(work))
        with server_cores.request() as core:
            yield core
            yield env.timeout(software.post_time(work))
        latency.record(env.now - start)
        completed[0] += 1

    def server(index: int):
        rng = random.Random(seed * 997 + index)
        cores = Resource(env, capacity=config.cores_per_server)
        for _ in range(queries_per_server):
            work = config.workload.sample(rng)
            env.process(query(cores, work))
            yield env.timeout(rng.expovariate(per_server_qps))

    for index in range(config.num_servers):
        env.process(server(index), name=f"server-{index}")
    env.run()
    utilization = pool.busy_time / (env.now * config.num_fpgas) \
        if env.now > 0 else 0.0
    return ConsolidationResult(
        servers_per_fpga=config.servers_per_fpga,
        fpga_utilization=utilization, latency=latency,
        queries_completed=completed[0])


def consolidation_sweep(ratios: List[int], num_fpgas: int = 2,
                        queries_per_server: int = 400,
                        seed: int = 0) -> List[ConsolidationResult]:
    """Sweep servers-per-FPGA (integer ratios) at a fixed pool size."""
    results = []
    for i, ratio in enumerate(ratios):
        config = ConsolidationConfig(
            num_servers=ratio * num_fpgas, num_fpgas=num_fpgas)
        results.append(run_consolidation_point(
            config, queries_per_server=queries_per_server,
            seed=seed + i))
    return results
