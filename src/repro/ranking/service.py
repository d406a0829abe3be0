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
from typing import Callable, Dict, Optional

from ..core.metrics import LatencyRecorder, SloTracker
from ..haas.fpga_manager import FpgaHealth, FpgaManager
from ..overload import (
    AdmissionConfig,
    AdmissionController,
    Deadline,
    DeadlineStats,
    ServiceLevel,
)
from ..sim import Environment, Pool
from ..trace.stages import Stage
from .ffu import FfuConfig, FfuDpfRole, QueryWork, SoftwareTimingModel, \
    WorkloadModel


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
class OverloadConfig:
    """End-to-end overload protection for one ranking server.

    Attach to :class:`RankingServiceConfig` to enable; ``None`` (the
    default) preserves the classic unprotected behavior exactly.

    ``protect`` exists so the *unprotected* baseline in overload
    experiments can still stamp deadlines and account SLO misses
    (apples-to-apples goodput) while actually shedding or dropping
    nothing.
    """

    admission: AdmissionConfig = field(default_factory=AdmissionConfig)
    #: Deadline budget stamped on arrivals that don't carry one.
    default_budget: float = 8e-3
    #: Candidate-set fraction kept at the DEGRADED rung.
    degraded_fraction: float = 0.25
    #: Master switch for the shed/degrade ladder and for dropping
    #: expired work mid-path.
    protect: bool = True
    #: Cost of a fast rejection (error serialization, connection reset).
    reject_latency: float = 10e-6


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
    #: Overload protection; ``None`` = classic unprotected server.
    overload: Optional[OverloadConfig] = None


def _ignore(_latency: Optional[float]) -> None:
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

        # Overload protection (None unless configured).
        ov = config.overload
        self.admission: Optional[AdmissionController] = None
        self.slo: Optional[SloTracker] = None
        self.deadline_stats = DeadlineStats()
        self.degraded_queries = 0
        self.rejected = 0
        if ov is not None:
            self.admission = AdmissionController(ov.admission,
                                                 start_time=env.now)
            self.slo = SloTracker()
        #: EWMA of per-grant core hold time, seeding the door-side
        #: queue-delay prediction before any query has been measured.
        self._core_hold_ewma = config.software.pre_seconds
        #: A query's stages in order: the pool it holds a server of, the
        #: stage tapped when it is granted one (where expired work is
        #: dropped), the stage tapped when it is done, and its hold time.
        self._software_plan = ((self.cores, Stage.CORE_QUEUE,
                                Stage.CORE_SOFTWARE, self._software_time),)
        self._accelerated_plan = (
            (self.cores, Stage.CORE_QUEUE, Stage.SW_PRE,
             config.software.pre_time),
            # Core released while the FPGA does the heavy lifting.
            (self.fpga_slots, Stage.FPGA_QUEUE, Stage.ROLE_SERVICE,
             self.feature_stage_time),
            (self.cores, Stage.POST_QUEUE, Stage.SW_POST,
             config.software.post_time))

    # ------------------------------------------------------------------
    def predicted_core_delay(self) -> float:
        """Instantaneous estimate of the wait a new arrival would see."""
        return (len(self.cores.queue) * self._core_hold_ewma
                / self.config.num_cores)

    # ------------------------------------------------------------------
    def fail_fpga(self) -> None:
        """Accelerator lost: degrade to the software timing model."""
        self.fpga_available = False
        if self.admission is not None:
            self.admission.fpga_healthy = False

    def restore_fpga(self) -> None:
        """Accelerator capacity is back: resume hardware scoring."""
        self.fpga_available = True
        if self.admission is not None:
            self.admission.fpga_healthy = True

    def bind_fpga_health(self, manager: FpgaManager) -> None:
        """Follow an FPGA Manager's health: degrade to software whenever
        the board leaves HEALTHY, restore when it returns."""
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
        mode = self.config.mode
        if mode is AccelerationMode.SOFTWARE:
            return self.config.software.feature_time(work)
        if mode is AccelerationMode.LOCAL_FPGA:
            return self.role.local_service_time(work)
        network = self.config.remote.network_time(work.document_bytes)
        return network + self.role.compute_time(work)

    def _expire(self, stage: Stage) -> None:
        self.deadline_stats.drop(stage)
        if self.slo is not None:
            self.slo.expire()

    def handle_query(self, work: Optional[QueryWork] = None):
        """Process body that submits one query and finishes at once."""
        self.submit(work)
        yield from ()

    def submit(self, work: Optional[QueryWork] = None,
               done: Callable[[Optional[float]], None] = _ignore) -> None:
        """Start one query now: pre -> features -> post.

        The query is a chain of ``call_later`` steps, each holding a core
        or an FPGA slot from a :class:`~repro.sim.Pool`.  ``done`` is
        called with the query's latency when it completes, or with None
        when it is shed or dropped.

        With :class:`OverloadConfig` attached this becomes the protected
        path: admission decides shed/degrade on arrival, the measured
        core-queue delay feeds the CoDel controller, and every stage
        boundary drops work whose deadline has already expired.
        """
        if work is None:
            work = self.config.workload.sample(self.rng)
        arrival = self.env.now
        ov = self.config.overload

        enforce = False
        if ov is not None:
            if work.deadline is None:
                work.deadline = Deadline.from_budget(arrival,
                                                     ov.default_budget)
            enforce = ov.protect
            self.slo.offer()
            degraded = False
            if enforce:
                level = self.admission.admit(
                    arrival, predicted_delay=self.predicted_core_delay())
                if level is ServiceLevel.SHED:
                    # Reject-with-fast-error: the client hears in
                    # microseconds, the server spends ~nothing.
                    self.rejected += 1
                    self.slo.shed_one()
                    self.env.call_later(ov.reject_latency, done, None)
                    return
                if level is ServiceLevel.DEGRADED:
                    self.degraded_queries += 1
                    degraded = True
                    work = work.pruned(ov.degraded_fraction)
            self.slo.admit(degraded=degraded)

        if self.config.mode is AccelerationMode.SOFTWARE:
            plan = self._software_plan
        elif self.fpga_available:
            plan = self._accelerated_plan
        else:
            self.software_fallbacks += 1
            plan = self._software_plan
        plan[0][0].acquire(self._serve_late if enforce else self._serve,
                           plan, 0, work, arrival, enforce, done)

    def _software_time(self, work: QueryWork) -> float:
        """The owning thread runs all stages back to back on one core."""
        software = self.config.software
        return (software.pre_time(work) + software.feature_time(work)
                + software.post_time(work))

    def _serve_late(self, *args) -> None:
        # A grant updates what admission reads (the hold EWMA, the CoDel
        # state), so under enforced protection it takes effect at the end
        # of its instant, after every query arriving then is admitted.
        self.env.call_later(0.0, self._serve, *args)

    def _serve(self, plan, i, work, arrival, enforce, done) -> None:
        """Stage ``i`` was granted its server: drop the query if its
        deadline passed while it queued, else hold the server."""
        pool, queued, _, hold_time = plan[i]
        now = self.env.now
        if work.trace is not None:
            work.trace.tap(queued, now)
        if not i and self.admission is not None:
            self.admission.on_queue_delay(now - arrival, now)
        if enforce and work.deadline.expired(now):
            self._expire(queued)
            done(None)
            pool.release()
            return
        hold = hold_time(work)
        if pool is self.cores:
            self._core_hold_ewma += 0.2 * (hold - self._core_hold_ewma)
        self.env.call_later(hold, self._served, plan, i, work, arrival,
                            enforce, done)

    def _served(self, plan, i, work, arrival, enforce, done) -> None:
        pool, _, served, _ = plan[i]
        now = self.env.now
        if work.trace is not None:
            work.trace.tap(served, now)
        if i + 1 < len(plan):
            pool.release()
            plan[i + 1][0].acquire(
                self._serve_late if enforce else self._serve, plan, i + 1,
                work, arrival, enforce, done)
            return
        self.completed += 1
        latency = now - arrival
        self.latency.record(latency)
        if self.slo is not None:
            self.slo.complete(missed_deadline=work.deadline.expired(now))
        done(latency)
        pool.release()


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


# ----------------------------------------------------------------------
# Surge experiments (overload protection)
# ----------------------------------------------------------------------
@dataclass
class SurgePhase:
    """One phase (pre / surge / post) of a surge experiment."""

    name: str
    start: float
    end: float
    #: SLO counter deltas over the phase (see SloTracker.snapshot()).
    slo: Dict[str, int]
    #: Latency of requests *completed* during the phase (admitted only —
    #: shed requests never produce a completion).
    latency: LatencyRecorder

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def goodput_qps(self) -> float:
        """Within-deadline completions per second during the phase."""
        if self.duration <= 0:
            return 0.0
        return self.slo["good"] / self.duration

    @property
    def offered_qps(self) -> float:
        if self.duration <= 0:
            return 0.0
        return self.slo["offered"] / self.duration


@dataclass
class SurgeResult:
    """Outcome of one flash-crowd run against a ranking server."""

    phases: Dict[str, SurgePhase]
    server: "RankingServer"

    def row(self) -> Dict[str, float]:
        out: Dict[str, float] = {}
        for name, phase in self.phases.items():
            out[f"{name}_offered_qps"] = phase.offered_qps
            out[f"{name}_goodput_qps"] = phase.goodput_qps
            if phase.latency.count:
                out[f"{name}_p99"] = phase.latency.p99
        out["rejected"] = float(self.server.rejected)
        out["degraded"] = float(self.server.degraded_queries)
        out["deadline_drops"] = float(self.server.deadline_stats.total)
        return out


def run_surge(config: RankingServiceConfig, profile,
              duration: Optional[float] = None,
              seed: int = 0) -> SurgeResult:
    """Drive one server through a flash crowd; report per-phase SLO.

    ``profile`` is a :class:`repro.workloads.FlashCrowdProfile` (anything
    with ``rate(t)``, ``peak_qps``, ``surge_start``, ``surge_end`` and
    ``ramp`` works).  The run is split into *pre* (before the surge),
    *surge* and *post* phases; goodput and admitted-latency percentiles
    are accounted per phase by completion time, so the gates of ISSUE 6
    ("goodput under surge >= 85% of pre-surge", "admitted P99 <= 3x
    pre-surge P99") read straight off the result.

    Requires ``config.overload`` — the unprotected baseline is expressed
    as ``OverloadConfig(protect=False)``, which stamps deadlines and
    accounts SLO misses without shedding or dropping anything.
    """
    if config.overload is None:
        raise ValueError(
            "run_surge needs config.overload (use "
            "OverloadConfig(protect=False) for an unprotected-but-"
            "accounted baseline)")
    from ..workloads.surge import VariableRateArrivals

    if duration is None:
        duration = profile.surge_end + profile.surge_start
    env = Environment()
    server = RankingServer(env, config, rng=random.Random(seed + 1))
    bounds = [
        ("pre", 0.0, profile.surge_start),
        ("surge", profile.surge_start, profile.surge_end),
        ("post", min(profile.surge_end + profile.ramp, duration), duration),
    ]
    recorders = {name: LatencyRecorder(name) for name, _, _ in bounds}

    def phase_of(t: float) -> Optional[str]:
        for name, start, end in bounds:
            if start <= t < end:
                return name
        return None

    def record(latency: Optional[float]) -> None:
        if latency is not None:
            name = phase_of(env.now)
            if name is not None:
                recorders[name].record(latency)

    def submit() -> None:
        server.submit(done=record)

    VariableRateArrivals(
        env, profile.rate, max_rate=profile.peak_qps * 1.001,
        submit=submit, rng=random.Random(seed), until=duration)

    snapshots: Dict[float, Dict[str, int]] = {}
    sample_times = sorted({t for _, start, end in bounds
                           for t in (start, end)})

    def sampler():
        for t in sample_times:
            if t > env.now:
                yield env.timeout(t - env.now)
            snapshots[t] = server.slo.snapshot()

    env.process(sampler(), name="surge-sampler")
    env.run()

    phases: Dict[str, SurgePhase] = {}
    for name, start, end in bounds:
        before = snapshots.get(start, server.slo.snapshot())
        after = snapshots.get(end, server.slo.snapshot())
        delta = {k: after[k] - before[k] for k in after}
        phases[name] = SurgePhase(name=name, start=start, end=end,
                                  slo=delta, latency=recorders[name])
    return SurgeResult(phases=phases, server=server)
