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
        self.latency = LatencyRecorder("dnn-request")
        self.completed = 0

    @property
    def num_fpgas(self) -> int:
        return len(self.accelerators)

    def _pick(self) -> int:
        best = 0
        for i in range(1, self.num_fpgas):
            if self._queue_depth[i] < self._queue_depth[best]:
                best = i
        return best

    def request(self, trace=None) -> None:
        """Send one client request through the pool.

        ``trace`` (a :class:`~repro.trace.TraceContext`) attributes the
        LTL network halves to ``pool.net``, the slot wait to
        ``pool.queue`` and the accelerator service to ``role.service``.
        """
        network = self.remote.sample(self.rng) if self.remote else 0.0
        index = self._pick()
        request = _Request(index, network, self.env.now, trace)
        self._queue_depth[index] += 1
        if network > 0:
            # Outbound network half before the accelerator sees it.
            self.env.call_later(network / 2, self._slots[index].acquire,
                                self._serve, request)
        else:
            self._slots[index].acquire(self._serve, request)

    def _serve(self, request: "_Request") -> None:
        if request.trace is not None:
            if request.network > 0:
                # It reached the FPGA when the call_later queueing it fired.
                request.trace.tap(Stage.POOL_NET,
                                  request.enqueued_at + request.network / 2)
            request.trace.tap(Stage.POOL_QUEUE, self.env.now)
        service = self.accelerators[request.index].sample_service_time(
            self.rng)
        self.env.call_later(service, self._served, request)

    def _served(self, request: "_Request") -> None:
        if request.trace is not None:
            request.trace.tap(Stage.ROLE_SERVICE, self.env.now)
        self._slots[request.index].release()
        self._queue_depth[request.index] -= 1
        if request.network > 0:
            self.env.call_later(request.network / 2, self._respond, request)
        else:
            self._respond(request)

    def _respond(self, request: "_Request") -> None:
        if request.trace is not None and request.network > 0:
            request.trace.tap(Stage.POOL_NET, self.env.now)
        self.latency.record(self.env.now - request.enqueued_at)
        self.completed += 1


class _Request:
    """One client request on the FPGA ``index`` it was sent to."""

    __slots__ = ("index", "network", "enqueued_at", "trace")

    def __init__(self, index, network, enqueued_at, trace):
        self.index = index
        self.network = network
        self.enqueued_at = enqueued_at
        self.trace = trace


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
