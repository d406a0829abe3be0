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
from ..sim import Environment, Pool, RandomStreams
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
        self._slots = [Pool() for _ in range(num_fpgas)]
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

    def request(self, deadline=None, trace=None) -> None:
        """Send one client request through the pool.

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
        if expires_at is not None and enqueued_at > expires_at:
            self.deadline_drops += 1
            return
        network = self.remote.sample(self.rng) if self.remote else 0.0
        index = self._pick()
        leg = _Leg(None, index, network, enqueued_at, expires_at, trace)
        self._queue_depth[index] += 1
        if network > 0:
            # Outbound network half before the accelerator sees it.
            self.env.call_later(network / 2, self._slots[index].acquire,
                                self._serve, leg)
        else:
            self._slots[index].acquire(self._serve, leg)

    def request_hedged(self, hedge: HedgeController, deadline=None) -> None:
        """Send one request with tail hedging (Dean & Barroso).

        The primary goes to the JSQ-chosen FPGA.  If it has not answered
        after the controller's P95-derived delay — and the global hedge
        budget allows — one hedge goes to a *different* FPGA; the first
        response wins.  The losing leg is cancelled if it is still
        queued, so a queued loser adds zero backend load; a loser
        granted its slot afterwards hands it straight back.
        """
        enqueued_at = self.env.now
        expires_at = expires_at_of(deadline)
        if expires_at is not None and enqueued_at > expires_at:
            self.deadline_drops += 1
            return
        hedge.on_primary()
        race = _Race(hedge)
        network = self.remote.sample(self.rng) if self.remote else 0.0
        race.primary = _Leg(race, self._pick(), network, enqueued_at)
        self.env.call_later(network / 2, self._leg_arrive, race.primary)
        delay = hedge.hedge_delay()
        if delay is not None and self.num_fpgas >= 2:
            self.env.call_later(delay, self._hedge, race)

    def _hedge(self, race: "_Race") -> None:
        if race.winner is not None or not race.controller.try_acquire_hedge():
            return
        network = self.remote.sample(self.rng) if self.remote else 0.0
        race.hedged = _Leg(race, self._pick(exclude=race.primary.index),
                           network, race.primary.enqueued_at)
        self.env.call_later(network / 2, self._leg_arrive, race.hedged)

    def _leg_arrive(self, leg: "_Leg") -> None:
        """A hedge leg reaches its FPGA.  Even with no network half this
        is the end of its instant, after every request arriving in that
        instant has picked its FPGA."""
        self._queue_depth[leg.index] += 1
        leg.waiter = self._slots[leg.index].acquire(self._serve, leg)

    def _serve(self, leg: "_Leg") -> None:
        leg.waiter = None
        now = self.env.now
        if leg.trace is not None:
            if leg.network > 0:
                # It reached the FPGA when the call_later queueing it fired.
                leg.trace.tap(Stage.POOL_NET,
                              leg.enqueued_at + leg.network / 2)
            leg.trace.tap(Stage.POOL_QUEUE, now)
        expired = leg.expires_at is not None and now > leg.expires_at
        if expired or (leg.race is not None and leg.race.winner is not None):
            # Expired, or lost its race, while queued: give the slot
            # straight back.
            if expired:
                self.deadline_drops += 1
            self._queue_depth[leg.index] -= 1
            self._slots[leg.index].release()
            return
        self.backend_served += 1
        self.env.call_later(self._service_time(leg.index), self._served, leg)

    def _served(self, leg: "_Leg") -> None:
        if leg.trace is not None:
            leg.trace.tap(Stage.ROLE_SERVICE, self.env.now)
        self._slots[leg.index].release()
        self._queue_depth[leg.index] -= 1
        if leg.network > 0:
            self.env.call_later(leg.network / 2, self._respond, leg)
        else:
            self._respond(leg)

    def _respond(self, leg: "_Leg") -> None:
        race = leg.race
        if race is None:
            if leg.trace is not None and leg.network > 0:
                leg.trace.tap(Stage.POOL_NET, self.env.now)
            self.latency.record(self.env.now - leg.enqueued_at)
            self.completed += 1
            return
        if race.winner is not None:
            return
        race.winner = leg
        loser = race.hedged if leg is race.primary else race.primary
        loser_cancelled = loser is not None and loser.waiter is not None
        if loser_cancelled:
            self._slots[loser.index].cancel(loser.waiter)
            self._queue_depth[loser.index] -= 1
        latency = self.env.now - leg.enqueued_at
        self.latency.record(latency)
        self.completed += 1
        race.controller.observe(latency)
        if race.hedged is not None:
            race.controller.on_win(leg is race.hedged,
                                   loser_cancelled_unstarted=loser_cancelled)


class _Race:
    """A hedged request: its legs and the one that answered first."""

    __slots__ = ("controller", "primary", "hedged", "winner")

    def __init__(self, controller: HedgeController):
        self.controller = controller
        self.primary = self.hedged = self.winner = None


class _Leg:
    """One copy of a request on one FPGA (``race`` is None for a plain
    request); ``waiter`` is set while it queues for the slot."""

    __slots__ = ("race", "index", "network", "enqueued_at", "expires_at",
                 "trace", "waiter")

    def __init__(self, race, index, network, enqueued_at, expires_at=None,
                 trace=None):
        self.race = race
        self.index = index
        self.network = network
        self.enqueued_at = enqueued_at
        self.expires_at = expires_at
        self.trace = trace
        self.waiter = None


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

    def client(rng: random.Random, left: int) -> None:
        if left:
            pool.request()
            env.call_later(rng.expovariate(client_rate), client, rng,
                           left - 1)

    for cid in range(num_clients):
        client(streams.stream(f"client-{cid}"), requests_per_client)
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
