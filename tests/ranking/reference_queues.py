"""Reference query paths: one generator process per query, `Resource` grants.

The oracle for the callback query chains of :mod:`repro.ranking.service`,
:mod:`repro.ranking.consolidation` and :mod:`repro.dnn.pool`.  Every query,
pool request and feature extraction here is its own process (run by
:func:`tests.sim.reference_events.process`), and every core, FPGA slot
and accelerator queue is a counted :class:`Resource` whose grant is an
event at the instant it is made.
The subclasses share configuration, counters and helpers with the code
under test and replace only the query path.
"""

import random
from collections import deque
from typing import List, Optional

from repro.core.metrics import LatencyRecorder
from repro.dnn.pool import DnnPool, OversubscriptionResult
from repro.ranking.consolidation import ConsolidationConfig, \
    ConsolidationResult
from repro.ranking.ffu import FfuDpfRole, QueryWork
from repro.ranking.service import AccelerationMode, LoadResult, \
    RankingServer
from repro.sim import Environment, RandomStreams
from repro.trace.stages import Stage
from tests.sim.reference_events import Event, process


class ResourceRequest(Event):
    """Pending claim on a :class:`Resource` slot."""

    __slots__ = ("resource", "released")

    def __init__(self, env, resource):
        super().__init__(env)
        self.resource = resource
        self.released = False

    def release(self):
        self.resource.release(self)

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.release()


class Resource:
    """Counted resource with a FIFO wait queue; a grant is an event."""

    def __init__(self, env, capacity=1):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.env = env
        self.capacity = capacity
        self.users = []
        self.queue = deque()

    @property
    def count(self):
        return len(self.users)

    def request(self):
        event = ResourceRequest(self.env, self)
        self.queue.append(event)
        self._grant()
        return event

    def release(self, request):
        if request.released:
            return
        request.released = True
        self.users.remove(request)
        self._grant()

    def _grant(self):
        while self.queue and len(self.users) < self.capacity:
            request = self.queue.popleft()
            self.users.append(request)
            request.succeed()


# ----------------------------------------------------------------------
# Ranking server
# ----------------------------------------------------------------------
class ReferenceRankingServer(RankingServer):
    def __init__(self, env, config, rng=None):
        super().__init__(env, config, rng=rng)
        self.cores = Resource(env, capacity=config.num_cores)
        self.fpga_slots = Resource(env, capacity=config.fpga_pipeline_slots)

    def handle_query(self, work: Optional[QueryWork] = None):
        if work is None:
            work = self.config.workload.sample(self.rng)
        arrival = self.env.now
        software = self.config.software
        accelerated = (self.config.mode is not AccelerationMode.SOFTWARE
                       and self.fpga_available)
        if self.config.mode is not AccelerationMode.SOFTWARE \
                and not self.fpga_available:
            self.software_fallbacks += 1
        trace = work.trace
        if not accelerated:
            with self.cores.request() as core:
                yield core
                if trace is not None:
                    trace.tap(Stage.CORE_QUEUE, self.env.now)
                yield self.env.timeout(software.pre_time(work)
                                       + software.feature_time(work)
                                       + software.post_time(work))
                if trace is not None:
                    trace.tap(Stage.CORE_SOFTWARE, self.env.now)
        else:
            with self.cores.request() as core:
                yield core
                if trace is not None:
                    trace.tap(Stage.CORE_QUEUE, self.env.now)
                yield self.env.timeout(software.pre_time(work))
                if trace is not None:
                    trace.tap(Stage.SW_PRE, self.env.now)
            with self.fpga_slots.request() as slot:
                yield slot
                if trace is not None:
                    trace.tap(Stage.FPGA_QUEUE, self.env.now)
                yield self.env.timeout(self.feature_stage_time(work))
                if trace is not None:
                    trace.tap(Stage.ROLE_SERVICE, self.env.now)
            with self.cores.request() as core:
                yield core
                if trace is not None:
                    trace.tap(Stage.POST_QUEUE, self.env.now)
                yield self.env.timeout(software.post_time(work))
                if trace is not None:
                    trace.tap(Stage.SW_POST, self.env.now)

        self.completed += 1
        latency = self.env.now - arrival
        self.latency.record(latency)
        return latency


def run_open_loop(config, arrival_rate_qps, num_queries=2000, seed=0,
                  warmup_fraction=0.1):
    env = Environment()
    rng = random.Random(seed)
    server = ReferenceRankingServer(env, config, rng=random.Random(seed + 1))

    def generator(env):
        for _ in range(num_queries):
            process(env, server.handle_query())
            yield env.timeout(rng.expovariate(arrival_rate_qps))

    process(env, generator(env))
    env.run()
    warmup = int(num_queries * warmup_fraction)
    recorder = LatencyRecorder("steady-state")
    recorder.extend(server.latency.samples[warmup:])
    achieved = server.completed / env.now if env.now > 0 else 0.0
    return LoadResult(offered_qps=arrival_rate_qps, achieved_qps=achieved,
                      latency=recorder)


def saturation_qps(config, seed=0, num_queries=1500):
    env = Environment()
    server = ReferenceRankingServer(env, config, rng=random.Random(seed + 1))

    def closed_loop(env):
        for _ in range(num_queries):
            process(env, server.handle_query())
        yield env.timeout(0)

    process(env, closed_loop(env))
    env.run()
    return server.completed / env.now


# ----------------------------------------------------------------------
# DNN pool
# ----------------------------------------------------------------------
class ReferenceDnnPool(DnnPool):
    def __init__(self, env, num_fpgas, rng, accelerator_config=None,
                 remote=None):
        super().__init__(env, num_fpgas, rng,
                         accelerator_config=accelerator_config,
                         remote=remote)
        self._slots = [Resource(env, capacity=1) for _ in range(num_fpgas)]

    def request(self, trace=None):
        enqueued_at = self.env.now
        network = 0.0
        if self.remote is not None:
            network = self.remote.sample(self.rng)
        index = self._pick()
        self._queue_depth[index] += 1
        if network > 0:
            yield self.env.timeout(network / 2)
            if trace is not None:
                trace.tap(Stage.POOL_NET, self.env.now)
        with self._slots[index].request() as slot:
            yield slot
            if trace is not None:
                trace.tap(Stage.POOL_QUEUE, self.env.now)
            yield self.env.timeout(
                self.accelerators[index].sample_service_time(self.rng))
            if trace is not None:
                trace.tap(Stage.ROLE_SERVICE, self.env.now)
        self._queue_depth[index] -= 1
        if network > 0:
            yield self.env.timeout(network / 2)
            if trace is not None:
                trace.tap(Stage.POOL_NET, self.env.now)
        latency = self.env.now - enqueued_at
        self.latency.record(latency)
        self.completed += 1
        return latency


def run_oversubscription_point(num_clients, num_fpgas, remote=None,
                               requests_per_client=300,
                               accelerator_config=None, seed=0):
    env = Environment()
    streams = RandomStreams(seed=seed)
    pool = ReferenceDnnPool(env, num_fpgas, rng=streams.stream("dnn-pool"),
                            accelerator_config=accelerator_config,
                            remote=remote)
    client_rate = pool.accelerators[0].capacity_rps / 3.0

    def client(client_id):
        rng = streams.stream(f"client-{client_id}")
        for _ in range(requests_per_client):
            process(env, pool.request())
            yield env.timeout(rng.expovariate(client_rate))

    for cid in range(num_clients):
        process(env, client(cid))
    env.run()
    recorder = LatencyRecorder("steady")
    warmup = int(0.05 * len(pool.latency.samples))
    recorder.extend(pool.latency.samples[warmup:])
    return OversubscriptionResult(
        oversubscription=num_clients / num_fpgas,
        num_clients=num_clients, num_fpgas=num_fpgas, latency=recorder)


# ----------------------------------------------------------------------
# Consolidation
# ----------------------------------------------------------------------
class ReferenceSharedFfuPool:
    def __init__(self, env, config):
        self.env = env
        self.config = config
        self.role = FfuDpfRole(config.ffu)
        self._slots = [Resource(env, capacity=1)
                       for _ in range(config.num_fpgas)]
        self._depth = [0] * config.num_fpgas
        self.busy_time = 0.0

    def _pick(self):
        best = 0
        for i in range(1, len(self._slots)):
            if self._depth[i] < self._depth[best]:
                best = i
        return best

    def extract(self, work):
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
                            queries_per_server=400, seed=0):
    config = config or ConsolidationConfig()
    env = Environment()
    pool = ReferenceSharedFfuPool(env, config)
    latency = LatencyRecorder("query")
    completed = [0]

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
        yield process(env, pool.extract(work))
        with server_cores.request() as core:
            yield core
            yield env.timeout(software.post_time(work))
        latency.record(env.now - start)
        completed[0] += 1

    def server(index):
        rng = random.Random(seed * 997 + index)
        cores = Resource(env, capacity=config.cores_per_server)
        for _ in range(queries_per_server):
            work = config.workload.sample(rng)
            process(env, query(cores, work))
            yield env.timeout(rng.expovariate(per_server_qps))

    for index in range(config.num_servers):
        process(env, server(index))
    env.run()
    utilization = pool.busy_time / (env.now * config.num_fpgas) \
        if env.now > 0 else 0.0
    return ConsolidationResult(
        servers_per_fpga=config.servers_per_fpga,
        fpga_utilization=utilization, latency=latency,
        queries_completed=completed[0])


__all__: List[str] = [
    "ReferenceDnnPool", "ReferenceRankingServer", "ReferenceSharedFfuPool",
    "Resource", "ResourceRequest", "run_consolidation_point",
    "run_open_loop", "run_oversubscription_point", "saturation_qps",
]
