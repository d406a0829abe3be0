"""Tests for configuration management and the SEU scrubber."""

import random

import pytest

from repro.fpga.reconfig import (
    GOLDEN_IMAGE,
    PARTIAL_RECONFIG_SECONDS,
    POWER_CYCLE_SECONDS,
    ConfigurationError,
    ConfigurationManager,
    Image,
)
from repro.fpga.seu import MEAN_SECONDS_BETWEEN_FLIPS, SeuScrubber
from repro.sim import Environment


class TestConfigurationManager:
    def test_boots_golden(self):
        manager = ConfigurationManager(Environment())
        assert manager.live_image is GOLDEN_IMAGE
        assert manager.link_up

    def test_power_cycle_drops_link_temporarily(self):
        env = Environment()
        manager = ConfigurationManager(env)
        states = []
        manager.on_link_change = lambda up: states.append((env.now, up))
        env.process(manager.power_cycle())
        env.run()
        assert states == [(0.0, False),
                          (pytest.approx(POWER_CYCLE_SECONDS), True)]

    def test_partial_reconfigure_keeps_link_up(self):
        env = Environment()
        manager = ConfigurationManager(env)
        states = []
        manager.on_link_change = lambda up: states.append(up)
        env.process(manager.partial_reconfigure(Image("r2", "r2")))
        env.run()
        assert states == []
        assert manager.live_image.name == "r2"
        assert env.now == pytest.approx(PARTIAL_RECONFIG_SECONDS)

    def test_partial_cannot_load_golden(self):
        env = Environment()
        manager = ConfigurationManager(env)
        with pytest.raises(ConfigurationError):
            env.process(manager.partial_reconfigure(GOLDEN_IMAGE))
            env.run()

    def test_power_cycle_restores_golden(self):
        env = Environment()
        app = Image("buggy", "role")
        manager = ConfigurationManager(env)
        env.process(manager.partial_reconfigure(app))
        env.run()
        assert manager.live_image is app
        env.process(manager.power_cycle())
        env.run()
        assert manager.live_image is GOLDEN_IMAGE
        assert manager.power_cycles == 1

    def test_concurrent_reconfig_rejected(self):
        env = Environment()
        manager = ConfigurationManager(env)
        env.process(manager.partial_reconfigure(Image("a", "a")))

        def second(env):
            yield env.timeout(0.1)
            with pytest.raises(ConfigurationError):
                gen = manager.partial_reconfigure(Image("b", "b"))
                next(gen)

        env.process(second(env))
        env.run()


class TestSeuScrubber:
    def test_flip_rate_statistics(self):
        """Fleet-scale flip rate matches 1 per 1025 machine-days."""
        env = Environment()
        day = 24 * 3600.0
        # One simulated scrubber, accelerated: mean 1 day between flips.
        scrubber = SeuScrubber(env, rng=random.Random(1),
                               mean_seconds_between_flips=day,
                               scrub_period=3600.0)
        env.run(until=400 * day)
        # Poisson(400): within 4 sigma.
        assert 320 <= scrubber.stats.flips <= 480

    def test_scrubber_detects_and_corrects(self):
        env = Environment()
        scrubber = SeuScrubber(env, rng=random.Random(2),
                               mean_seconds_between_flips=10.0,
                               scrub_period=30.0)
        env.run(until=1000.0)
        assert scrubber.stats.flips > 0
        assert scrubber.stats.corrected == scrubber.stats.detected
        # Everything injected so far and scrubbed is accounted for.
        assert scrubber.stats.detected >= scrubber.stats.flips - 5

    def test_role_hang_recovers_within_scrub_period(self):
        env = Environment()
        scrubber = SeuScrubber(env, rng=random.Random(3),
                               mean_seconds_between_flips=5.0,
                               scrub_period=30.0,
                               role_hang_probability=1.0)
        recoveries = []
        scrubber.on_recovery = lambda event: recoveries.append(
            env.now - event.occurred_at)
        env.run(until=500.0)
        assert recoveries
        assert all(dt <= 30.0 + 1e-9 for dt in recoveries)
        # Every *detected* hang recovered (flips after the last scrub pass
        # are still pending at the end of the run).
        detected_hangs = sum(1 for e in scrubber.events
                             if e.caused_role_hang and e.detected_at >= 0)
        assert scrubber.stats.recoveries == detected_hangs

    def test_expected_flips_matches_paper_scale(self):
        # 5760 machines for 30 days ~ 168.6 expected flips.
        machine_seconds = 5760 * 30 * 24 * 3600.0
        assert machine_seconds / MEAN_SECONDS_BETWEEN_FLIPS == \
            pytest.approx(168.6, abs=0.1)
