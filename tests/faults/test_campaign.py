"""Tests for fault-campaign generation: determinism, §II-B scaling,
event shapes."""

import pytest

from repro.faults import (CampaignConfig, FaultKind, TRANSIENT_KINDS,
                          generate_campaign)

HOSTS = list(range(16))


def paper_config(scale=5e6):
    return CampaignConfig.scaled_from_paper(scale)


class TestConfig:
    def test_paper_rates_cover_every_kind(self):
        config = paper_config()
        for kind in FaultKind:
            assert config.rates[kind] > 0.0

    def test_scaling_is_linear(self):
        one = paper_config(1e6)
        two = paper_config(2e6)
        for kind in FaultKind:
            assert two.rates[kind] == pytest.approx(2 * one.rates[kind])

    def test_hard_death_dominates_cable_rate(self):
        # §II-B: 2 hard failures vs 1 flaky cable over the same window.
        config = paper_config()
        assert config.rates[FaultKind.FPGA_DEATH] == pytest.approx(
            2 * config.rates[FaultKind.LINK_FLAP])

    def test_shape_overrides_applied(self):
        config = CampaignConfig.scaled_from_paper(
            1e6, gray_delay=7e-3, control_stall_duration=42.0)
        assert config.gray_delay == 7e-3
        assert config.control_stall_duration == 42.0

    def test_event_shape_matches_config(self):
        config = CampaignConfig.scaled_from_paper(1e6, flap_duration=9.0)
        shape = config.event_shape(FaultKind.LINK_FLAP)
        assert shape["duration"] == 9.0

    def test_overload_kind_shapes(self):
        config = CampaignConfig.scaled_from_paper(
            1e6, slow_peer_factor=16.0)
        peer = config.event_shape(FaultKind.SLOW_PEER)
        assert peer["magnitude"] == 16.0
        assert peer["duration"] == config.slow_peer_duration

    def test_overload_kinds_are_transient(self):
        assert FaultKind.SLOW_PEER in TRANSIENT_KINDS
        # Limplock is as common as a flaky cable.
        config = paper_config()
        assert config.rates[FaultKind.SLOW_PEER] == pytest.approx(
            config.rates[FaultKind.LINK_FLAP])


class TestGeneration:
    def test_deterministic_for_same_seed(self):
        config = paper_config()
        a = generate_campaign(HOSTS, 100.0, config, seed=42)
        b = generate_campaign(HOSTS, 100.0, config, seed=42)
        assert a == b

    def test_different_seed_differs(self):
        config = paper_config()
        a = generate_campaign(HOSTS, 100.0, config, seed=1)
        b = generate_campaign(HOSTS, 100.0, config, seed=2)
        assert a != b

    def test_sorted_within_horizon_targets_valid(self):
        config = paper_config()
        events = generate_campaign(HOSTS, 50.0, config, seed=7)
        assert events
        assert events == sorted(events, key=lambda e: e.at)
        for e in events:
            assert 0.0 <= e.at < 50.0
            if e.kind is FaultKind.CONTROL_STALL:
                assert e.target == -1
            else:
                assert e.target in HOSTS
            if e.kind in TRANSIENT_KINDS:
                assert e.duration > 0.0

    def test_rate_scales_event_count(self):
        lo = generate_campaign(HOSTS, 200.0, paper_config(1e6), seed=3)
        hi = generate_campaign(HOSTS, 200.0, paper_config(8e6), seed=3)
        assert len(hi) > 2 * len(lo)

    def test_empty_hosts_rejected(self):
        with pytest.raises(ValueError):
            generate_campaign([], 10.0, paper_config(), seed=0)

    def test_zero_rates_yield_no_events(self):
        config = CampaignConfig(rates={})
        assert generate_campaign(HOSTS, 100.0, config, seed=0) == []
