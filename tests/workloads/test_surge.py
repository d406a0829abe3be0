"""Surge workload profiles and the NHPP (thinning) arrival process."""

import random

import pytest

from repro.sim import Environment
from repro.workloads import FlashCrowdProfile, VariableRateArrivals


class TestFlashCrowdProfile:
    def test_piecewise_rates(self):
        p = FlashCrowdProfile(baseline_qps=100.0, surge_multiplier=5.0,
                              surge_start=1.0, surge_duration=2.0,
                              ramp=0.1)
        assert p.rate(0.5) == pytest.approx(100.0)
        assert p.rate(2.0) == pytest.approx(500.0)
        assert p.rate(10.0) == pytest.approx(100.0)
        # Mid-ramp is halfway between baseline and peak.
        assert p.rate(1.05) == pytest.approx(300.0)
        assert p.peak_qps == pytest.approx(500.0)
        assert p.surge_end == pytest.approx(3.0)

    def test_rate_never_exceeds_peak(self):
        p = FlashCrowdProfile(baseline_qps=50.0, surge_multiplier=4.0)
        times = [i * 1e-3 for i in range(int(5e3))]
        assert max(p.rate(t) for t in times) <= p.peak_qps + 1e-9

    def test_validation(self):
        with pytest.raises(ValueError):
            FlashCrowdProfile(baseline_qps=0.0)
        with pytest.raises(ValueError):
            FlashCrowdProfile(baseline_qps=10.0, surge_multiplier=0.5)


class TestVariableRateArrivals:
    def test_mean_rate_matches_profile(self):
        env = Environment()
        count = [0]
        profile = FlashCrowdProfile(baseline_qps=1000.0,
                                    surge_multiplier=3.0,
                                    surge_start=1.0, surge_duration=1.0)
        VariableRateArrivals(env, profile.rate,
                             max_rate=profile.peak_qps * 1.001,
                             submit=lambda: count.__setitem__(
                                 0, count[0] + 1),
                             rng=random.Random(7), until=3.0)
        env.run()
        # Expected arrivals: 1000*1 + 3000*1 + 1000*1 (+ramp slivers).
        expected = 5000.0
        assert count[0] == pytest.approx(expected, rel=0.10)

    def test_deterministic_given_seed(self):
        times = []
        for _ in range(2):
            env = Environment()
            arrivals = []
            VariableRateArrivals(
                env, lambda t: 500.0, max_rate=500.0,
                submit=lambda: arrivals.append(env.now),
                rng=random.Random(3), until=1.0)
            env.run()
            times.append(arrivals)
        assert times[0] == times[1]

    def test_envelope_violation_raises(self):
        env = Environment()
        VariableRateArrivals(env, lambda t: 1000.0, max_rate=100.0,
                             submit=lambda: None,
                             rng=random.Random(0), until=1.0)
        with pytest.raises(ValueError, match="envelope"):
            env.run()

    def test_invalid_envelope(self):
        env = Environment()
        with pytest.raises(ValueError):
            VariableRateArrivals(env, lambda t: 1.0, max_rate=0.0,
                                 submit=lambda: None)
