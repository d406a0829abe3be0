"""Shared DNN accelerator pool and the oversubscription study (Fig. 12).

"To evaluate the impact of remote service oversubscription, we deployed a
small pool of latency-sensitive DNN accelerators shared by multiple
software clients ... each software client sends synthetic traffic to the
DNN pool at a rate several times higher than the expected throughput per
client in deployment.  We increased the ratio of software clients to
accelerators (by removing FPGAs from the pool) to measure the impact on
latency due to oversubscription."

Latency is measured "between when a request is enqueued to the work queue
and when its response is received from the accelerator" — for remote
clients this includes LTL network time both ways.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Optional

from ..core.metrics import LatencyRecorder
from ..overload.deadline import expires_at_of
from ..overload.hedging import HedgeController
from ..sim import Environment, RandomStreams, Resource
from ..trace.stages import Stage
from .accelerator import DnnAccelerator, DnnAcceleratorConfig

#: The paper's measured sustainable clients per FPGA at stress rates.
SUSTAINABLE_CLIENTS_PER_FPGA = 22.5
#: Stress clients send at several times the expected production rate;
#: with this multiplier an FPGA saturates at ~3 stress clients, matching
#: Fig. 12's x-axis knee.
STRESS_RATE_MULTIPLIER = 7.5


@dataclass
class RemoteNetworkModel:
    """Added latency for reaching a pooled accelerator over LTL.

    ``tail_probability``/``tail_min``/``tail_max`` model rare production
    network outliers (bursty cross-traffic on oversubscribed uplinks) that
    dominate the 99th percentile while barely moving the average —
    exactly the 1% / 4.7% / 32% (avg/95th/99th) overheads of §V-E.
    """

    round_trip: float = 2.9e-6
    request_bytes: int = 2 * 1024
    response_bytes: int = 4 * 1024
    ltl_bandwidth_bps: float = 38e9
    per_message_overhead: float = 2.0e-6
    #: LTL retransmission after a drop: the 50 us timeout plus the redo.
    retransmit_probability: float = 0.055
    retransmit_min: float = 60e-6
    retransmit_max: float = 100e-6
    #: Rare congestion events on oversubscribed uplinks.
    tail_probability: float = 0.014
    tail_min: float = 0.7e-3
    tail_max: float = 1.1e-3

    def base_delay(self) -> float:
        wire = (self.request_bytes + self.response_bytes) * 8 \
            / self.ltl_bandwidth_bps
        return self.round_trip + wire + 2 * self.per_message_overhead

    def sample(self, rng: random.Random) -> float:
        delay = self.base_delay() * rng.uniform(0.95, 1.1)
        if rng.random() < self.retransmit_probability:
            delay += rng.uniform(self.retransmit_min, self.retransmit_max)
        if rng.random() < self.tail_probability:
            delay += rng.uniform(self.tail_min, self.tail_max)
        return delay


class DnnPool:
    """A pool of DNN accelerators behind per-FPGA work queues.

    The Service Manager's load balancing is join-shortest-queue across
    the pool (clients are not pinned), which is what keeps the pool
    efficient until it truly runs out of aggregate throughput.
    """

    def __init__(self, env: Environment, num_fpgas: int, rng: random.Random,
                 accelerator_config: Optional[DnnAcceleratorConfig] = None,
                 remote: Optional[RemoteNetworkModel] = None):
        if num_fpgas < 1:
            raise ValueError("pool needs at least one FPGA")
        self.env = env
        self.remote = remote
        # Required: derive per-pool streams from RandomStreams (e.g.
        # ``streams.stream("dnn-pool")``) — the old seed-0 fallback
        # correlated network jitter across pools.
        self.rng = rng
        self.accelerators = [
            DnnAccelerator(accelerator_config) for _ in range(num_fpgas)]
        self._slots = [Resource(env, capacity=1) for _ in range(num_fpgas)]
        self._queue_depth = [0] * num_fpgas
        #: Per-FPGA service-time multiplier (limplock knob: a slow peer
        #: serves at ``slow_factor`` x the nominal time until reset).
        self.slow_factor = [1.0] * num_fpgas
        self.latency = LatencyRecorder("dnn-request")
        self.completed = 0
        #: Requests actually *served* by an accelerator (primaries plus
        #: hedges that started service) — the hedge-budget denominator
        #: measures extra backend load against this.
        self.backend_served = 0
        #: Requests dropped because their deadline expired in the pool.
        self.deadline_drops = 0

    @property
    def num_fpgas(self) -> int:
        return len(self.accelerators)

    def set_slow(self, index: int, factor: float) -> None:
        """Limplock ``index``: it keeps serving, ``factor`` x slower."""
        if factor < 1.0:
            raise ValueError("slow factor must be >= 1.0")
        self.slow_factor[index] = factor

    def _pick(self, exclude: Optional[int] = None) -> int:
        best = -1
        for i in range(self.num_fpgas):
            if i == exclude:
                continue
            if best < 0 or self._queue_depth[i] < self._queue_depth[best]:
                best = i
        return best

    def _service_time(self, index: int) -> float:
        return self.accelerators[index].sample_service_time(self.rng) \
            * self.slow_factor[index]

    def request(self, deadline=None, trace=None):
        """Process: one client request through the pool.

        ``deadline`` (a Deadline or absolute expiry in seconds) makes
        the pool drop-and-account the request instead of serving it once
        expired — checked at entry and again when the accelerator slot
        is granted (the wait is where overload shows up).  ``trace`` (a
        :class:`~repro.trace.TraceContext`) attributes the LTL network
        halves to ``pool.net``, the slot wait to ``pool.queue`` and the
        accelerator service to ``role.service``.
        """
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
        # Outbound network half before the accelerator sees the request.
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

    # ------------------------------------------------------------------
    # Hedged requests (tail-at-scale)
    # ------------------------------------------------------------------
    def _race_leg(self, index: int, network: float, state: Dict,
                  label: str, done) -> None:
        """One leg of a hedged race; fills ``state[label]`` in place."""

        def leg():
            out = state[label]
            if network > 0:
                yield self.env.timeout(network / 2)
            self._queue_depth[index] += 1
            slot = self._slots[index].request()
            out["slot"] = slot
            yield slot
            if state["winner"] is not None:
                # Lost while queued: give the slot straight back.
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

    def request_hedged(self, hedge: HedgeController, deadline=None):
        """Process: one request with tail hedging (Dean & Barroso).

        The primary goes to the JSQ-chosen FPGA.  If it has not answered
        after the controller's P95-derived delay — and the global hedge
        budget allows — one hedge goes to a *different* FPGA; the first
        response wins.  The losing leg is cancelled if it has not yet
        started service, so a queued loser adds zero backend load.
        """
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
                       "hedge_issued": False}
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
            state["hedge_issued"] = True
            hedge_network = self.remote.sample(self.rng) if self.remote \
                else 0.0
            self._race_leg(self._pick(exclude=primary_index),
                           hedge_network, state, "hedge", done)

        if delay is not None and self.num_fpgas >= 2:
            self.env.process(hedger(), name="dnn-hedger")

        winner = yield done
        # Cancel the losing leg if it is still *queued*: releasing an
        # ungranted request removes it from the wait queue, so it never
        # reaches an accelerator.  A granted-but-unstarted loser cleans
        # itself up when its process resumes and sees the winner.
        loser_cancelled = False
        loser = "hedge" if winner == "primary" else "primary"
        if loser == "primary" or state["hedge_issued"]:
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
        if state["hedge_issued"]:
            hedge.on_win(winner == "hedge",
                         loser_cancelled_unstarted=loser_cancelled)
        return latency

    def _slots_release_for(self, slot_request) -> None:
        """Release a leg's slot request on whichever FPGA issued it."""
        resource = slot_request.resource
        resource.release(slot_request)
        index = self._slots.index(resource)
        self._queue_depth[index] -= 1


@dataclass
class OversubscriptionResult:
    """One point of the Fig. 12 sweep."""

    oversubscription: float
    num_clients: int
    num_fpgas: int
    latency: LatencyRecorder

    def row(self) -> Dict[str, float]:
        out = self.latency.summary()
        out["oversubscription"] = self.oversubscription
        out["clients"] = float(self.num_clients)
        out["fpgas"] = float(self.num_fpgas)
        return out


def run_oversubscription_point(num_clients: int, num_fpgas: int,
                               remote: Optional[RemoteNetworkModel] = None,
                               requests_per_client: int = 300,
                               accelerator_config:
                               Optional[DnnAcceleratorConfig] = None,
                               seed: int = 0) -> OversubscriptionResult:
    """Simulate one (clients, FPGAs) configuration.

    Each client is an open-loop Poisson source at the stress rate
    (capacity / 3 per client, so the pool saturates at 3 clients/FPGA).
    """
    env = Environment()
    # SHA-256-derived child streams (process-stable; see repro.sim):
    # the pool's network jitter and every client's arrival process get
    # independent streams off the one experiment seed.
    streams = RandomStreams(seed=seed)
    pool = DnnPool(env, num_fpgas, rng=streams.stream("dnn-pool"),
                   accelerator_config=accelerator_config, remote=remote)
    client_rate = pool.accelerators[0].capacity_rps / 3.0

    def client(client_id: int):
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


def oversubscription_sweep(ratios: List[float], base_fpgas: int = 8,
                           remote: Optional[RemoteNetworkModel] = None,
                           requests_per_client: int = 300,
                           seed: int = 0) -> List[OversubscriptionResult]:
    """Sweep clients-per-FPGA ratios with a fixed client population.

    Mirrors the paper: the client population stays put while FPGAs are
    removed from the pool.
    """
    results = []
    num_clients = base_fpgas  # 1:1 at ratio 1.0 with the full pool
    for i, ratio in enumerate(ratios):
        num_fpgas = max(1, round(num_clients / ratio))
        results.append(run_oversubscription_point(
            num_clients=num_clients, num_fpgas=num_fpgas, remote=remote,
            requests_per_client=requests_per_client, seed=seed + i))
    return results
