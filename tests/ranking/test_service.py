"""Tests for the ranking-service queueing simulation (Figs. 6-8, 11)."""

import pytest

from repro.ranking.service import (
    AccelerationMode,
    RankingServiceConfig,
    run_open_loop,
    saturation_qps,
)


def config(mode):
    return RankingServiceConfig(mode=mode)


class TestSaturation:
    def test_fpga_capacity_roughly_2x_software(self):
        """The Fig. 6 headline: 'throughput can be safely increased by
        2.25x' — capacity ratio lands a bit above that."""
        sw = saturation_qps(config(AccelerationMode.SOFTWARE))
        fp = saturation_qps(config(AccelerationMode.LOCAL_FPGA))
        assert 1.9 <= fp / sw <= 2.8

    def test_remote_capacity_matches_local(self):
        """Remote adds latency, not throughput loss (Fig. 11)."""
        fp = saturation_qps(config(AccelerationMode.LOCAL_FPGA))
        rm = saturation_qps(config(AccelerationMode.REMOTE_FPGA))
        assert rm == pytest.approx(fp, rel=0.05)

    def test_more_cores_more_capacity(self):
        small = RankingServiceConfig(mode=AccelerationMode.SOFTWARE,
                                     num_cores=4)
        large = RankingServiceConfig(mode=AccelerationMode.SOFTWARE,
                                     num_cores=16)
        assert saturation_qps(large) > 2 * saturation_qps(small)


class TestOpenLoop:
    def test_low_load_latency_near_service_time(self):
        cfg = config(AccelerationMode.SOFTWARE)
        capacity = saturation_qps(cfg)
        result = run_open_loop(cfg, 0.2 * capacity, num_queries=800)
        # p50 at light load ~ unqueued service time (sub-2 ms here).
        assert result.latency.p50 < 2e-3

    def test_latency_grows_with_load(self):
        cfg = config(AccelerationMode.SOFTWARE)
        capacity = saturation_qps(cfg)
        light = run_open_loop(cfg, 0.3 * capacity, num_queries=800,
                              seed=1)
        heavy = run_open_loop(cfg, 0.95 * capacity, num_queries=800,
                              seed=1)
        assert heavy.latency.p99 > light.latency.p99

    def test_fpga_latency_lower_at_equal_load(self):
        sw_cfg = config(AccelerationMode.SOFTWARE)
        fp_cfg = config(AccelerationMode.LOCAL_FPGA)
        rate = 0.9 * saturation_qps(sw_cfg)
        sw = run_open_loop(sw_cfg, rate, num_queries=800, seed=2)
        fp = run_open_loop(fp_cfg, rate, num_queries=800, seed=2)
        assert fp.latency.p99 < sw.latency.p99

    def test_remote_overhead_small_at_service_level(self):
        """Fig. 11: 'the latency overhead of remote accesses is
        minimal' at millisecond query scale."""
        fp_cfg = config(AccelerationMode.LOCAL_FPGA)
        rm_cfg = config(AccelerationMode.REMOTE_FPGA)
        rate = 0.5 * saturation_qps(fp_cfg)
        fp = run_open_loop(fp_cfg, rate, num_queries=800, seed=3)
        rm = run_open_loop(rm_cfg, rate, num_queries=800, seed=3)
        assert rm.latency.mean < 1.25 * fp.latency.mean

    def test_row_contains_summary(self):
        cfg = config(AccelerationMode.SOFTWARE)
        result = run_open_loop(cfg, 1000, num_queries=200)
        row = result.row()
        for key in ("p99", "offered_qps", "achieved_qps", "mean"):
            assert key in row

    def test_deterministic_given_seed(self):
        cfg = config(AccelerationMode.SOFTWARE)
        a = run_open_loop(cfg, 2000, num_queries=300, seed=7)
        b = run_open_loop(cfg, 2000, num_queries=300, seed=7)
        assert a.latency.samples == b.latency.samples


class TestSweep:
    def test_fig6_shape(self):
        """The Fig. 6 shape: at the software 99th-percentile latency
        target, the FPGA sustains >= 1.8x the software throughput."""
        sw_cfg = config(AccelerationMode.SOFTWARE)
        fp_cfg = config(AccelerationMode.LOCAL_FPGA)
        sw_capacity = saturation_qps(sw_cfg)
        target_rate = 0.9 * sw_capacity
        sw = run_open_loop(sw_cfg, target_rate, num_queries=1000, seed=4)
        latency_target = sw.latency.p99
        # Drive the FPGA config at ~2x the software rate: still under
        # the latency target.
        fp = run_open_loop(fp_cfg, 1.8 * target_rate, num_queries=1000,
                           seed=4)
        assert fp.latency.p99 <= latency_target
