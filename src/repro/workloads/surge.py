"""Surge workloads: flash crowds.

The five-day trace (:mod:`repro.workloads.diurnal`) models *planned*
load variation at half-hour granularity.  Overload experiments need the
unplanned kind: a flash crowd that multiplies offered load within
seconds.  This module provides a time-varying rate profile and a
non-homogeneous Poisson arrival process (exact thinning, seeded) to
drive it.

All randomness flows through the caller-supplied ``random.Random`` so
seeded runs replay bit-identically.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Optional

from ..sim import Environment


@dataclass
class FlashCrowdProfile:
    """Baseline load with one multiplicative surge window.

    The rate ramps linearly into and out of the surge over ``ramp``
    seconds — real flash crowds are steep, not discontinuous, and a
    ramp keeps the thinning envelope tight.
    """

    baseline_qps: float
    surge_multiplier: float = 5.0
    surge_start: float = 0.5
    surge_duration: float = 1.0
    ramp: float = 0.02

    def __post_init__(self) -> None:
        if self.baseline_qps <= 0:
            raise ValueError("baseline_qps must be positive")
        if self.surge_multiplier < 1:
            raise ValueError("surge_multiplier must be >= 1")

    @property
    def surge_end(self) -> float:
        return self.surge_start + self.surge_duration

    @property
    def peak_qps(self) -> float:
        return self.baseline_qps * self.surge_multiplier

    def rate(self, t: float) -> float:
        """Offered load (queries/second) at time ``t``."""
        peak = self.peak_qps
        base = self.baseline_qps
        if t < self.surge_start or t >= self.surge_end + self.ramp:
            return base
        if t < self.surge_start + self.ramp:
            frac = (t - self.surge_start) / self.ramp
            return base + (peak - base) * frac
        if t < self.surge_end:
            return peak
        frac = (t - self.surge_end) / self.ramp
        return peak - (peak - base) * frac


class VariableRateArrivals:
    """Non-homogeneous Poisson arrivals from a rate profile.

    Exact thinning (Lewis & Shedler): candidate arrivals are drawn at
    the envelope rate ``max_rate`` and accepted with probability
    ``rate(t)/max_rate`` — statistically exact for any profile bounded
    by the envelope, and deterministic given the ``rng``.
    """

    def __init__(self, env: Environment, rate_fn: Callable[[float], float],
                 max_rate: float, submit: Callable[[], None],
                 rng: Optional[random.Random] = None,
                 until: Optional[float] = None,
                 limit: Optional[int] = None):
        if max_rate <= 0:
            raise ValueError("envelope rate must be positive")
        self.env = env
        self.rate_fn = rate_fn
        self.max_rate = max_rate
        self.submit = submit
        self.rng = rng or random.Random(0)
        self.until = until
        self.limit = limit
        self.generated = 0
        self.thinned = 0
        env.process(self._run(), name="nhpp-arrivals")

    def _run(self):
        rng = self.rng
        while True:
            if self.limit is not None and self.generated >= self.limit:
                return
            yield self.env.timeout(rng.expovariate(self.max_rate))
            now = self.env.now
            if self.until is not None and now >= self.until:
                return
            rate = self.rate_fn(now)
            if rate > self.max_rate:
                raise ValueError(
                    f"rate {rate:.1f} at t={now:.3f} exceeds the "
                    f"thinning envelope {self.max_rate:.1f}")
            if rng.random() < rate / self.max_rate:
                self.generated += 1
                self.submit()
            else:
                self.thinned += 1
