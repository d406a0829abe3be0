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
from typing import Callable, Dict, List, Optional

from ..core.metrics import LatencyRecorder
from ..sim import Environment, Pool
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
        self._slots = [Pool() for _ in range(config.num_fpgas)]
        self._depth = [0] * config.num_fpgas
        self.busy_time = 0.0

    def _pick(self) -> int:
        best = 0
        for i in range(1, len(self._slots)):
            if self._depth[i] < self._depth[best]:
                best = i
        return best

    def extract(self, work, then: Callable[..., None], *args) -> None:
        """Remote feature extraction for one query; ``then(*args)`` runs
        when the result is back at the server."""
        network = self.config.remote.network_time(work.document_bytes)
        index = self._pick()
        self._depth[index] += 1
        self.env.call_later(network / 2, self._slots[index].acquire,
                            self._compute, index, network, work, then, args)

    def _compute(self, index, network, work, then, args) -> None:
        compute = self.role.compute_time(work)
        self.busy_time += compute
        self.env.call_later(compute, self._computed, index, network, then,
                            args)

    def _computed(self, index, network, then, args) -> None:
        self._slots[index].release()
        self._depth[index] -= 1
        self.env.call_later(network / 2, then, *args)


def run_consolidation_point(config: Optional[ConsolidationConfig] = None,
                            queries_per_server: int = 400,
                            seed: int = 0) -> ConsolidationResult:
    """Simulate N servers sharing M remote FFU FPGAs."""
    config = config or ConsolidationConfig()
    env = Environment()
    pool = _SharedFfuPool(env, config)
    latency = LatencyRecorder("query")

    # A server's software-stage capacity (pre + post on its cores).
    software = config.software
    sample_rng = random.Random(seed)
    mean_work = [config.workload.sample(sample_rng) for _ in range(200)]
    mean_core_time = sum(
        software.pre_time(w) + software.post_time(w)
        for w in mean_work) / len(mean_work)
    per_server_qps = config.server_load * config.cores_per_server \
        / mean_core_time

    # One query: pre on a core, features on the shared pool, post on a
    # core.  A core, once granted, schedules the end of its stage.
    def pre_done(cores, work, start):
        cores.release()
        pool.extract(work, cores.acquire, env.call_later,
                     software.post_time(work), post_done, cores, start)

    def post_done(cores, start):
        cores.release()
        latency.record(env.now - start)

    def arrive(rng, cores, left):
        if left:
            work = config.workload.sample(rng)
            cores.acquire(env.call_later, software.pre_time(work), pre_done,
                          cores, work, env.now)
            env.call_later(rng.expovariate(per_server_qps), arrive, rng,
                           cores, left - 1)

    for index in range(config.num_servers):
        arrive(random.Random(seed * 997 + index),
               Pool(config.cores_per_server), queries_per_server)
    env.run()
    utilization = pool.busy_time / (env.now * config.num_fpgas) \
        if env.now > 0 else 0.0
    return ConsolidationResult(
        servers_per_fpga=config.servers_per_fpga,
        fpga_utilization=utilization, latency=latency,
        queries_completed=latency.count)


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
