"""Reference query paths: one generator process per query, `Resource` grants.

The oracle for the callback query chains of :mod:`repro.ranking.service`,
:mod:`repro.ranking.consolidation` and :mod:`repro.dnn.pool`.  Every query,
pool request, hedge leg, hedger and feature extraction here is its own
process, and every core, FPGA slot and accelerator queue is a counted
:class:`Resource` whose grant is an event at the instant it is made.
The subclasses share configuration, counters and helpers with the code
under test and replace only the query path.
"""

import random
from collections import deque
from typing import Dict, List, Optional

from repro.core.metrics import LatencyRecorder
from repro.dnn.pool import DnnPool, OversubscriptionResult
from repro.overload import Deadline, ServiceLevel, expires_at_of
from repro.ranking.consolidation import ConsolidationConfig, \
    ConsolidationResult
from repro.ranking.ffu import FfuDpfRole, QueryWork
from repro.ranking.service import AccelerationMode, LoadResult, \
    RankingServer, SurgePhase, SurgeResult
from repro.sim import Environment, RandomStreams
from repro.sim.events import Event
from repro.trace.stages import Stage


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
        if request in self.users:
            self.users.remove(request)
        elif request in self.queue:
            # Cancelled before being granted.
            self.queue.remove(request)
            if not request.triggered:
                request._defused = True
            return
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

    def _note_core_hold(self, hold):
        self._core_hold_ewma += 0.2 * (hold - self._core_hold_ewma)

    def handle_query(self, work: Optional[QueryWork] = None):
        if work is None:
            work = self.config.workload.sample(self.rng)
        arrival = self.env.now
        software = self.config.software
        ov = self.config.overload

        deadline: Optional[Deadline] = work.deadline
        enforce = False
        if ov is not None:
            if deadline is None:
                deadline = Deadline.from_budget(arrival, ov.default_budget)
                work.deadline = deadline
            enforce = ov.protect
            if self.slo is not None:
                self.slo.offer()
            degraded = False
            if enforce and self.admission is not None:
                level = self.admission.admit(
                    arrival, predicted_delay=self.predicted_core_delay())
                if level is ServiceLevel.SHED:
                    self.rejected += 1
                    if self.slo is not None:
                        self.slo.shed_one()
                    yield self.env.timeout(ov.reject_latency)
                    return None
                if level is ServiceLevel.DEGRADED:
                    self.degraded_queries += 1
                    degraded = True
                    work = work.pruned(ov.degraded_fraction)
            if self.slo is not None:
                self.slo.admit(degraded=degraded)

        accelerated = (self.config.mode is not AccelerationMode.SOFTWARE
                       and self.fpga_available)
        if self.config.mode is not AccelerationMode.SOFTWARE \
                and not self.fpga_available:
            self.software_fallbacks += 1
        trace = work.trace
        if not accelerated:
            with self.cores.request() as core:
                yield core
                queue_delay = self.env.now - arrival
                if trace is not None:
                    trace.tap(Stage.CORE_QUEUE, self.env.now)
                if self.admission is not None:
                    self.admission.on_queue_delay(queue_delay, self.env.now)
                if enforce and deadline is not None \
                        and deadline.expired(self.env.now):
                    self._expire(Stage.CORE_QUEUE)
                    return None
                hold = (software.pre_time(work)
                        + software.feature_time(work)
                        + software.post_time(work))
                self._note_core_hold(hold)
                yield self.env.timeout(hold)
                if trace is not None:
                    trace.tap(Stage.CORE_SOFTWARE, self.env.now)
        else:
            with self.cores.request() as core:
                yield core
                queue_delay = self.env.now - arrival
                if trace is not None:
                    trace.tap(Stage.CORE_QUEUE, self.env.now)
                if self.admission is not None:
                    self.admission.on_queue_delay(queue_delay, self.env.now)
                if enforce and deadline is not None \
                        and deadline.expired(self.env.now):
                    self._expire(Stage.CORE_QUEUE)
                    return None
                hold = software.pre_time(work)
                self._note_core_hold(hold)
                yield self.env.timeout(hold)
                if trace is not None:
                    trace.tap(Stage.SW_PRE, self.env.now)
            with self.fpga_slots.request() as slot:
                yield slot
                if trace is not None:
                    trace.tap(Stage.FPGA_QUEUE, self.env.now)
                if enforce and deadline is not None \
                        and deadline.expired(self.env.now):
                    self._expire(Stage.FPGA_QUEUE)
                    return None
                yield self.env.timeout(self.feature_stage_time(work))
                if trace is not None:
                    trace.tap(Stage.ROLE_SERVICE, self.env.now)
            with self.cores.request() as core:
                yield core
                if trace is not None:
                    trace.tap(Stage.POST_QUEUE, self.env.now)
                if enforce and deadline is not None \
                        and deadline.expired(self.env.now):
                    self._expire(Stage.POST_QUEUE)
                    return None
                hold = software.post_time(work)
                self._note_core_hold(hold)
                yield self.env.timeout(hold)
                if trace is not None:
                    trace.tap(Stage.SW_POST, self.env.now)

        self.completed += 1
        latency = self.env.now - arrival
        self.latency.record(latency)
        if self.slo is not None:
            missed = deadline is not None and deadline.expired(self.env.now)
            self.slo.complete(missed_deadline=missed)
        return latency


def run_open_loop(config, arrival_rate_qps, num_queries=2000, seed=0,
                  warmup_fraction=0.1):
    env = Environment()
    rng = random.Random(seed)
    server = ReferenceRankingServer(env, config, rng=random.Random(seed + 1))

    def generator(env):
        for _ in range(num_queries):
            env.process(server.handle_query())
            yield env.timeout(rng.expovariate(arrival_rate_qps))

    env.process(generator(env))
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
            env.process(server.handle_query())
        yield env.timeout(0)

    env.process(closed_loop(env))
    env.run()
    return server.completed / env.now


def run_surge(config, profile, duration=None, seed=0):
    from repro.workloads.surge import VariableRateArrivals

    if duration is None:
        duration = profile.surge_end + profile.surge_start
    env = Environment()
    server = ReferenceRankingServer(env, config, rng=random.Random(seed + 1))
    bounds = [
        ("pre", 0.0, profile.surge_start),
        ("surge", profile.surge_start, profile.surge_end),
        ("post", min(profile.surge_end + profile.ramp, duration), duration),
    ]
    recorders = {name: LatencyRecorder(name) for name, _, _ in bounds}

    def phase_of(t):
        for name, start, end in bounds:
            if start <= t < end:
                return name
        return None

    def one_query():
        latency = yield from server.handle_query()
        if latency is not None:
            name = phase_of(env.now)
            if name is not None:
                recorders[name].record(latency)

    def submit():
        env.process(one_query())

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

    def request(self, deadline=None, trace=None):
        enqueued_at = self.env.now
        expires_at = expires_at_of(deadline)
        if expires_at is not None and self.env.now > expires_at:
            self.deadline_drops += 1
            return None
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
            if expires_at is not None and self.env.now > expires_at:
                self._queue_depth[index] -= 1
                self.deadline_drops += 1
                return None
            self.backend_served += 1
            yield self.env.timeout(self._service_time(index))
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

    def _race_leg(self, index, network, state, label, done):
        def leg():
            out = state[label]
            if network > 0:
                yield self.env.timeout(network / 2)
            self._queue_depth[index] += 1
            slot = self._slots[index].request()
            out["slot"] = slot
            yield slot
            if state["winner"] is not None:
                self._slots[index].release(slot)
                self._queue_depth[index] -= 1
                return
            out["started"] = True
            self.backend_served += 1
            service = self._service_time(index)
            yield self.env.timeout(service)
            self._slots[index].release(slot)
            self._queue_depth[index] -= 1
            if network > 0:
                yield self.env.timeout(network / 2)
            if state["winner"] is None:
                state["winner"] = label
                done.succeed(label)

        self.env.process(leg(), name=f"dnn-{label}")

    def request_hedged(self, hedge, deadline=None):
        enqueued_at = self.env.now
        expires_at = expires_at_of(deadline)
        if expires_at is not None and self.env.now > expires_at:
            self.deadline_drops += 1
            return None
        hedge.on_primary()
        done = self.env.event()
        state: Dict = {"winner": None,
                       "primary": {"slot": None, "started": False},
                       "hedge": {"slot": None, "started": False},
                       "hedge_sent": False}
        network = self.remote.sample(self.rng) if self.remote else 0.0
        primary_index = self._pick()
        self._race_leg(primary_index, network, state, "primary", done)

        delay = hedge.hedge_delay()

        def hedger():
            yield self.env.timeout(delay)
            if state["winner"] is not None or self.num_fpgas < 2:
                return
            if not hedge.try_acquire_hedge():
                return
            state["hedge_sent"] = True
            hedge_network = self.remote.sample(self.rng) if self.remote \
                else 0.0
            self._race_leg(self._pick(exclude=primary_index),
                           hedge_network, state, "hedge", done)

        if delay is not None and self.num_fpgas >= 2:
            self.env.process(hedger(), name="dnn-hedger")

        winner = yield done
        loser_cancelled = False
        loser = "hedge" if winner == "primary" else "primary"
        if loser == "primary" or state["hedge_sent"]:
            out = state[loser]
            slot = out["slot"]
            if slot is not None and not out["started"] \
                    and not slot.released and not slot.triggered:
                self._slots_release_for(slot)
                loser_cancelled = True
        latency = self.env.now - enqueued_at
        self.latency.record(latency)
        self.completed += 1
        hedge.observe(latency)
        if state["hedge_sent"]:
            hedge.on_win(winner == "hedge",
                         loser_cancelled_unstarted=loser_cancelled)
        return latency

    def _slots_release_for(self, slot_request):
        resource = slot_request.resource
        resource.release(slot_request)
        index = self._slots.index(resource)
        self._queue_depth[index] -= 1


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
            env.process(pool.request())
            yield env.timeout(rng.expovariate(client_rate))

    for cid in range(num_clients):
        env.process(client(cid), name=f"client-{cid}")
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
        yield env.process(pool.extract(work))
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


__all__: List[str] = [
    "ReferenceDnnPool", "ReferenceRankingServer", "ReferenceSharedFfuPool",
    "Resource", "ResourceRequest", "run_consolidation_point",
    "run_open_loop", "run_oversubscription_point", "run_surge",
    "saturation_qps",
]
