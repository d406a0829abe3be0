"""Hedged remote requests with a bounded hedge budget.

Remote acceleration (Fig. 11) makes one slow pool FPGA everyone's
problem: a limplocked peer inflates the tail of every server that
borrows it.  The classic tail-at-scale cure is the *hedged request*:
if the primary has not answered after roughly the P95 latency, issue
one duplicate to a *different* FPGA and take whichever answers first.
95% of requests never hedge, so the duplicate load is small, but the
slowest few percent — exactly the ones a slow peer produces — get a
second, independent draw.

Two disciplines keep hedging from becoming its own overload source:

* **Budget** — hedges are capped at a fraction of primary requests
  (default 5%).  The cap is a deterministic ratio check, not a token
  bucket with wall-clock refill, so seeded runs replay exactly.
* **Cancel on first win** — the loser is cancelled if it has not yet
  started service, so a hedge that loses the race while still queued
  costs nothing downstream.

The hedge delay adapts: it is the exact P95 of every remote latency
observed so far (kept in one sorted list, so each new observation is a
``bisect.insort`` and each delay read is an index lookup), floored at
``min_delay``.  Until ``min_samples`` responses have been seen the
controller refuses to hedge — guessing a delay from no data hedges
either far too eagerly or never.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from typing import List, Optional

from ..sim.randomness import percentile


@dataclass
class HedgeConfig:
    """Tunables for hedged remote requests."""

    #: Issue the hedge after this latency percentile of observed
    #: responses (Dean & Barroso's "defer to the 95th percentile").
    quantile: float = 95.0
    #: Never hedge earlier than this (guards against the observed
    #: quantile collapsing toward zero at light load).
    min_delay: float = 20e-6
    #: Hedges may not exceed this fraction of primary requests.
    budget_fraction: float = 0.05
    #: Observed responses required before hedging activates.
    min_samples: int = 50


@dataclass
class HedgeStats:
    """Outcome accounting for hedged requests."""

    primaries: int = 0
    hedges_issued: int = 0
    hedges_suppressed_budget: int = 0
    hedge_wins: int = 0
    primary_wins: int = 0
    hedges_cancelled_unstarted: int = 0

    @property
    def hedge_fraction(self) -> float:
        """Hedges as a fraction of primaries (the ≤-budget invariant)."""
        if self.primaries == 0:
            return 0.0
        return self.hedges_issued / self.primaries


class HedgeController:
    """Decides when to hedge and enforces the global hedge budget."""

    def __init__(self, config: Optional[HedgeConfig] = None):
        self.config = config or HedgeConfig()
        self.stats = HedgeStats()
        #: Every observed latency, kept sorted.
        self._latencies: List[float] = []

    def observe(self, latency: float) -> None:
        """Feed one completed remote-request latency."""
        bisect.insort(self._latencies, latency)

    def hedge_delay(self) -> Optional[float]:
        """Delay after which the primary should be hedged, or ``None``
        while too little has been observed to pick one."""
        if len(self._latencies) < self.config.min_samples:
            return None
        return max(self.config.min_delay,
                   percentile(self._latencies, self.config.quantile))

    def on_primary(self) -> None:
        """Account one primary request being issued."""
        self.stats.primaries += 1

    def try_acquire_hedge(self) -> bool:
        """Spend one unit of hedge budget; False if the cap is hit.

        The invariant is ``hedges_issued <= budget_fraction * primaries``
        at every instant, checked deterministically — no refill clock.
        """
        allowed = int(self.config.budget_fraction * self.stats.primaries)
        if self.stats.hedges_issued + 1 > allowed:
            self.stats.hedges_suppressed_budget += 1
            return False
        self.stats.hedges_issued += 1
        return True

    def on_win(self, hedge_won: bool,
               loser_cancelled_unstarted: bool = False) -> None:
        """Record which leg answered first."""
        if hedge_won:
            self.stats.hedge_wins += 1
        else:
            self.stats.primary_wins += 1
        if loser_cancelled_unstarted:
            self.stats.hedges_cancelled_unstarted += 1
