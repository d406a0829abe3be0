"""Hedged-request controller: P95 delay, budget, win accounting."""

import pytest

from repro.overload import HedgeConfig, HedgeController
from repro.sim.randomness import percentile


class TestHedgeDelay:
    def test_no_delay_until_min_samples(self):
        hedge = HedgeController(HedgeConfig(min_samples=50))
        for _ in range(49):
            hedge.observe(1e-3)
        assert hedge.hedge_delay() is None
        hedge.observe(1e-3)
        assert hedge.hedge_delay() is not None

    def test_delay_tracks_p95(self):
        hedge = HedgeController(HedgeConfig(min_samples=50))
        observed = [1e-3 if i % 20 else 10e-3  # 5% slow tail
                    for i in range(1000)]
        for latency in observed:
            hedge.observe(latency)
        # The delay is the exact P95 of everything observed.
        assert hedge.hedge_delay() == percentile(sorted(observed), 95.0)

    def test_min_delay_floor(self):
        hedge = HedgeController(HedgeConfig(min_samples=10,
                                            min_delay=5e-3))
        for _ in range(20):
            hedge.observe(1e-6)
        assert hedge.hedge_delay() == pytest.approx(5e-3)


class TestHedgeBudget:
    def test_budget_is_a_hard_fraction_of_primaries(self):
        hedge = HedgeController(HedgeConfig(budget_fraction=0.05))
        for _ in range(100):
            hedge.on_primary()
        issued = 0
        while hedge.try_acquire_hedge():
            issued += 1
        # floor(0.05 * 100) = 5 hedges, never more.
        assert issued == 5
        assert hedge.stats.hedges_suppressed_budget >= 1

    def test_budget_grows_with_primaries(self):
        hedge = HedgeController(HedgeConfig(budget_fraction=0.05))
        for _ in range(19):
            hedge.on_primary()
        assert not hedge.try_acquire_hedge()  # floor(0.95) = 0
        hedge.on_primary()
        assert hedge.try_acquire_hedge()      # floor(1.0) = 1
        assert not hedge.try_acquire_hedge()

    def test_hedge_fraction_stat(self):
        hedge = HedgeController(HedgeConfig(budget_fraction=0.10))
        for _ in range(100):
            hedge.on_primary()
        for _ in range(10):
            assert hedge.try_acquire_hedge()
        assert hedge.stats.hedge_fraction == pytest.approx(0.10)

    def test_win_accounting(self):
        hedge = HedgeController(HedgeConfig())
        hedge.on_primary()
        hedge.on_win(hedge_won=True, loser_cancelled_unstarted=True)
        hedge.on_primary()
        hedge.on_win(hedge_won=False, loser_cancelled_unstarted=False)
        assert hedge.stats.hedge_wins == 1
        assert hedge.stats.primary_wins == 1
        assert hedge.stats.hedges_cancelled_unstarted == 1
