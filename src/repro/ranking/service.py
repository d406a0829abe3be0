"""Ranking service queueing simulation (paper §III-A, Figs. 6-8, 11).

One :class:`RankingServer` models a production web-search ranking server:
queries arrive, pass a software *pre* stage (parse + candidate selection),
a *feature extraction* stage (software, local FPGA, or remote FPGA over
LTL) and a software *post* stage (ML scoring).  Host cores and the FPGA
role's handful of concurrent query slots are FIFO pools
(:class:`repro.sim.Pool`) that each query passes through as a chain of
callbacks.

The three modes reproduce the paper's three curves:

* ``SOFTWARE`` — everything on cores (the baseline normalized to 1.0),
* ``LOCAL_FPGA`` — features offloaded over PCIe; "the software portion of
  ranking saturates the host server before the FPGA is saturated",
* ``REMOTE_FPGA`` — features shipped over LTL to another server's FPGA;
  adds only microseconds to millisecond-scale queries (Fig. 11).
"""

from __future__ import annotations

import enum
import random
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Dict, Optional

from ..core.metrics import LatencyRecorder
from ..sim import Environment, Pool
from ..trace.stages import Stage
from .ffu import FfuConfig, FfuDpfRole, QueryWork, SoftwareTimingModel, \
    WorkloadModel

if TYPE_CHECKING:
    from ..haas.fpga_manager import FpgaManager


class AccelerationMode(enum.Enum):
    SOFTWARE = "software"
    LOCAL_FPGA = "local_fpga"
    REMOTE_FPGA = "remote_fpga"


@dataclass
class RemoteAccessConfig:
    """Cost of reaching a pooled FPGA over LTL (measured, Fig. 10)."""

    round_trip: float = 2.9e-6           # same-TOR pool locality
    ltl_bandwidth_bps: float = 38e9      # LTL goodput on the 40G port
    per_message_overhead: float = 2.0e-6  # ER + packetization both ends

    def network_time(self, document_bytes: int) -> float:
        """Network share of one remote call: the LTL round trip, the
        documents on the wire and the per-message overhead."""
        return (self.round_trip
                + document_bytes * 8 / self.ltl_bandwidth_bps
                + self.per_message_overhead)


@dataclass
class RankingServiceConfig:
    """Everything defining one ranking server's performance."""

    mode: AccelerationMode = AccelerationMode.SOFTWARE
    num_cores: int = 8
    fpga_pipeline_slots: int = 4
    workload: WorkloadModel = field(default_factory=WorkloadModel)
    software: SoftwareTimingModel = field(
        default_factory=SoftwareTimingModel)
    ffu: FfuConfig = field(default_factory=FfuConfig)
    remote: RemoteAccessConfig = field(default_factory=RemoteAccessConfig)


def _ignore(_latency: float) -> None:
    """Default completion callback of :meth:`RankingServer.submit`."""


class RankingServer:
    """One server under a given acceleration mode."""

    def __init__(self, env: Environment, config: RankingServiceConfig,
                 rng: Optional[random.Random] = None):
        self.env = env
        self.config = config
        self.rng = rng or random.Random(0)
        self.cores = Pool(config.num_cores)
        self.role = FfuDpfRole(config.ffu)
        self.fpga_slots = Pool(config.fpga_pipeline_slots)
        self.latency = LatencyRecorder("query")
        self.completed = 0
        #: Is the accelerator reachable?  While False, queries run every
        #: stage on cores — "queries are serviced by software when their
        #: FPGA fails" (§II-B).
        self.fpga_available = True
        self.software_fallbacks = 0
        #: A query's stages, each a tuple: the pool it holds a server
        #: of, the stage tapped when it is granted one, the stage tapped
        #: when it is done, its hold time, and the stage after it (None
        #: for the last).  The mode is fixed, so each hold time is bound
        #: here once; ``fpga_available`` picks the plan per query.
        software = config.software
        self._software_plan = (self.cores, Stage.CORE_QUEUE,
                               Stage.CORE_SOFTWARE, self._software_time,
                               None)
        if config.mode is AccelerationMode.SOFTWARE:
            self._feature_time = software.feature_time
            self._plan = self._software_plan
        else:
            if config.mode is AccelerationMode.LOCAL_FPGA:
                self._feature_time = self.role.local_service_time
            else:
                self._feature_time = self._remote_feature_time
            post = (self.cores, Stage.POST_QUEUE, Stage.SW_POST,
                    software.post_time, None)
            # Core released while the FPGA does the heavy lifting.
            features = (self.fpga_slots, Stage.FPGA_QUEUE,
                        Stage.ROLE_SERVICE, self._feature_time, post)
            self._plan = (self.cores, Stage.CORE_QUEUE, Stage.SW_PRE,
                          software.pre_time, features)

    # ------------------------------------------------------------------
    def fail_fpga(self) -> None:
        """Accelerator lost: degrade to the software timing model."""
        self.fpga_available = False

    def restore_fpga(self) -> None:
        """Accelerator capacity is back: resume hardware scoring."""
        self.fpga_available = True

    def bind_fpga_health(self, manager: FpgaManager) -> None:
        """Follow an FPGA Manager's health: degrade to software whenever
        the board leaves HEALTHY, restore when it returns."""
        from ..haas.fpga_manager import FpgaHealth
        previous = manager.on_health_change

        def chained(fm, old, new, reason):
            if previous is not None:
                previous(fm, old, new, reason)
            if new is FpgaHealth.HEALTHY:
                self.restore_fpga()
            else:
                self.fail_fpga()

        manager.on_health_change = chained
        if manager.health is not FpgaHealth.HEALTHY:
            self.fail_fpga()

    # ------------------------------------------------------------------
    def feature_stage_time(self, work: QueryWork) -> float:
        """Feature-extraction service time in the configured mode."""
        return self._feature_time(work)

    def _remote_feature_time(self, work: QueryWork) -> float:
        """Remote FPGA: the LTL call's network share, then the role."""
        network = self.config.remote.network_time(work.document_bytes)
        return network + self.role.compute_time(work)

    def handle_query(self, work: Optional[QueryWork] = None):
        """Process body that submits one query and finishes at once."""
        self.submit(work)
        yield from ()

    def submit(self, work: Optional[QueryWork] = None,
               done: Callable[[float], None] = _ignore) -> None:
        """Start one query now: pre -> features -> post.

        The query is a chain of ``call_later`` steps, each holding a core
        or an FPGA slot from a :class:`~repro.sim.Pool`.  ``done`` is
        called with the query's latency when it completes.
        """
        if work is None:
            work = self.config.workload.sample(self.rng)
        stage = self._plan
        if not self.fpga_available and stage is not self._software_plan:
            self.software_fallbacks += 1
            stage = self._software_plan
        stage[0].acquire(self._serve, stage, work, self.env._now, done)

    def _software_time(self, work: QueryWork) -> float:
        """The owning thread runs all stages back to back on one core."""
        software = self.config.software
        return (software.pre_time(work) + software.feature_time(work)
                + software.post_time(work))

    def _serve(self, stage, work, arrival, done) -> None:
        """``stage`` was granted its server: hold it."""
        env = self.env
        if work.trace is not None:
            work.trace.tap(stage[1], env._now)
        env.call_later(stage[3](work), self._served, stage, work, arrival,
                       done)

    def _served(self, stage, work, arrival, done) -> None:
        """``stage``'s hold is over: its server goes back, and the query
        queues for the next stage or completes."""
        now = self.env._now
        if work.trace is not None:
            work.trace.tap(stage[2], now)
        following = stage[4]
        if following is not None:
            stage[0].release()
            following[0].acquire(self._serve, following, work, arrival,
                                 done)
            return
        self.completed += 1
        latency = now - arrival
        self.latency.record(latency)
        done(latency)
        stage[0].release()


@dataclass
class LoadResult:
    """Outcome of one open-loop run at a fixed arrival rate."""

    offered_qps: float
    achieved_qps: float
    latency: LatencyRecorder

    def row(self) -> Dict[str, float]:
        summary = self.latency.summary()
        summary["offered_qps"] = self.offered_qps
        summary["achieved_qps"] = self.achieved_qps
        return summary


def run_open_loop(config: RankingServiceConfig, arrival_rate_qps: float,
                  num_queries: int = 2000, seed: int = 0,
                  warmup_fraction: float = 0.1) -> LoadResult:
    """Drive one server with Poisson arrivals; collect steady-state latency.

    The first ``warmup_fraction`` of completions is discarded.
    """
    env = Environment()
    rng = random.Random(seed)
    server = RankingServer(env, config, rng=random.Random(seed + 1))

    def arrive(left: int) -> None:
        # One more gap is drawn after the last query: the run ends at
        # the later of that instant and the last completion.
        if left:
            server.submit()
            env.call_later(rng.expovariate(arrival_rate_qps), arrive,
                           left - 1)

    arrive(num_queries)
    env.run()
    warmup = int(num_queries * warmup_fraction)
    recorder = LatencyRecorder("steady-state")
    recorder.extend(server.latency.samples[warmup:])
    achieved = server.completed / env.now if env.now > 0 else 0.0
    return LoadResult(offered_qps=arrival_rate_qps, achieved_qps=achieved,
                      latency=recorder)


def saturation_qps(config: RankingServiceConfig, seed: int = 0,
                   num_queries: int = 1500) -> float:
    """Estimate a mode's max sustainable throughput (capacity).

    Closed-loop with enormous concurrency ~ work-conserving capacity.
    """
    env = Environment()
    server = RankingServer(env, config, rng=random.Random(seed + 1))
    for _ in range(num_queries):
        server.submit()
    env.run()
    return server.completed / env.now
