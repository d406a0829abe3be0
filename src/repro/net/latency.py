"""Latency constants and background-traffic jitter models.

Fixed constants are chosen so that the end-to-end LTL round-trip latencies
reproduce the paper's Fig. 10 tiers:

* L0 (same TOR):  avg 2.88 us, 99.9th 2.9 us — very tight
* L1 (same pod):  avg 7.72 us, 99.9th 8.24 us plus a small outlier tail
* L2 (cross pod): avg 18.71 us, 99.9th 22.38 us, max < 23.5 us

The decomposition: endpoint (LTL engine + MAC/PHY) processing, whose
constants live with the endpoints (``LtlConfig.tx_latency``/``rx_latency``
and ``ShellConfig.mac_tx_latency``/``mac_rx_latency``), per-switch
forwarding latency, per-link serialization + propagation, plus stochastic
queueing jitter contributed by background datacenter traffic sharing the
L1/L2 switches.  L2 pair-to-pair variation is dominated by physical fiber
distance between pods, which the paper calls out explicitly.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import List


@dataclass
class LatencyModel:
    """Fixed latency constants of the fabric's switches and links
    (seconds)."""

    # Switch forwarding latency (cut-through pipeline) per tier.
    tor_latency: float = 0.45e-6
    l1_latency: float = 0.88e-6
    l2_latency: float = 0.60e-6

    # Cable lengths per tier (metres, one link).
    host_tor_distance_m: float = 5.0
    tor_l1_distance_m: float = 100.0
    #: Cross-pod fiber runs vary with datacenter geometry; per-pair values
    #: are drawn in [l1_l2_distance_min_m, l1_l2_distance_max_m].
    l1_l2_distance_min_m: float = 215.0
    l1_l2_distance_max_m: float = 500.0

    # Link rates (bits/second).
    host_rate_bps: float = 40e9
    tor_uplink_rate_bps: float = 40e9
    l1_uplink_rate_bps: float = 40e9


@dataclass
class TierJitter:
    """Queueing jitter added by one switch traversal at a given tier.

    ``exp_mean`` models light, always-present interleaving with other
    traffic; with probability ``burst_prob`` the packet is stuck behind a
    burst and waits an extra Uniform(burst_min, burst_max).
    """

    exp_mean: float = 0.0
    burst_prob: float = 0.0
    burst_min: float = 0.0
    burst_max: float = 0.0

    def sample(self, rng: random.Random) -> float:
        delay = rng.expovariate(1.0 / self.exp_mean) if self.exp_mean > 0 \
            else 0.0
        if self.burst_prob > 0 and rng.random() < self.burst_prob:
            delay += rng.uniform(self.burst_min, self.burst_max)
        return delay

    def sample_batch(self, rng: random.Random, n: int) -> List[float]:
        """``n`` draws, consuming ``rng`` exactly as ``n`` ``sample()``
        calls would (so batched and unbatched runs stay bit-identical)."""
        exp_mean = self.exp_mean
        burst_prob = self.burst_prob
        if exp_mean <= 0 and burst_prob <= 0:
            return [0.0] * n
        out: List[float] = []
        append = out.append
        expovariate = rng.expovariate
        rand = rng.random
        uniform = rng.uniform
        lam = 1.0 / exp_mean if exp_mean > 0 else 0.0
        burst_min, burst_max = self.burst_min, self.burst_max
        for _ in range(n):
            delay = expovariate(lam) if exp_mean > 0 else 0.0
            if burst_prob > 0 and rand() < burst_prob:
                delay += uniform(burst_min, burst_max)
            append(delay)
        return out


@dataclass
class BackgroundTrafficModel:
    """Per-tier jitter, representing the rest of the datacenter's load.

    Defaults calibrated against Fig. 10: TOR queues are nearly idle for
    the measured (low-rate) LTL traffic; L1 switches occasionally delay a
    packet by ~0.5 us ("a small tail of outliers — possibly packets stuck
    behind other traffic"); L2 switches see broader oversubscription
    effects.
    """

    tor: TierJitter = field(default_factory=lambda: TierJitter(
        exp_mean=0.004e-6))
    l1: TierJitter = field(default_factory=lambda: TierJitter(
        exp_mean=0.03e-6, burst_prob=0.004, burst_min=0.25e-6,
        burst_max=0.55e-6))
    l2: TierJitter = field(default_factory=lambda: TierJitter(
        exp_mean=0.18e-6, burst_prob=0.03, burst_min=0.3e-6,
        burst_max=1.0e-6))

    def batched(self, tier: str, rng: random.Random,
                batch: int = 64) -> "JitterStream":
        """A buffered per-tier sampler for hot paths (one refill per
        ``batch`` packets instead of one full dispatch per packet)."""
        jitter = getattr(self, tier, None)
        if jitter is None:
            raise ValueError(f"unknown switch tier: {tier}")
        return JitterStream(jitter, rng, batch)


class JitterStream:
    """Buffered jitter draws for one (tier, rng) pair.

    Refills ``batch`` samples at a time via
    :meth:`TierJitter.sample_batch`; draw order (and therefore RNG
    consumption) matches per-packet sampling exactly, as long as the rng
    is not shared with another *interleaved* consumer.  A switch shares
    its rng with ECN marking, which draws nothing while its queues stay
    at or below ``kmin``; past that, batched and per-packet draws give
    different (still seeded) results.
    """

    __slots__ = ("_jitter", "_rng", "_batch", "_buffer", "_index")

    def __init__(self, jitter: TierJitter, rng: random.Random,
                 batch: int = 64):
        if batch < 1:
            raise ValueError("batch must be >= 1")
        self._jitter = jitter
        self._rng = rng
        self._batch = batch
        self._buffer: List[float] = []
        self._index = 0

    def take(self) -> float:
        """The next jitter value (refilling the buffer when drained)."""
        index = self._index
        if index >= len(self._buffer):
            self._buffer = self._jitter.sample_batch(self._rng, self._batch)
            index = 0
        self._index = index + 1
        return self._buffer[index]


def idle() -> BackgroundTrafficModel:
    """A jitter model with no background traffic at all (for unit tests)."""
    return BackgroundTrafficModel(tor=TierJitter(), l1=TierJitter(),
                                  l2=TierJitter())
