"""Tests for the ranking-service queueing simulation (Figs. 6-8, 11)."""

import random

import pytest

from repro.ranking.service import (
    AccelerationMode,
    RankingServer,
    RankingServiceConfig,
    run_open_loop,
    saturation_qps,
)
from repro.sim import Environment


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


class TestQueryPaths:
    """The two ways a driver starts a query, and what a query costs the
    kernel."""

    QUERIES = 400

    @pytest.mark.parametrize("mode", list(AccelerationMode))
    def test_process_path_matches_submit(self, mode):
        """A process running ``handle_query()`` per arrival (how
        perfbench drives Fig. 11) and ``submit()`` called at the same
        instants give the same queries, counters and final time."""
        cfg = config(mode)
        rate = 0.9 * saturation_qps(cfg, num_queries=400)

        def drive(by_process):
            env = Environment()
            server = RankingServer(env, cfg, rng=random.Random(6))
            arrivals = random.Random(5)
            if mode is not AccelerationMode.SOFTWARE:
                # A window with the FPGA lost, scheduled before the
                # arrivals: those queries fall back to software.
                end = self.QUERIES / rate
                env.call_at(0.4 * end, server.fail_fpga)
                env.call_at(0.6 * end, server.restore_fpga)

            def load(env):
                for _ in range(self.QUERIES):
                    env.process(server.handle_query())
                    yield env.timeout(arrivals.expovariate(rate))

            def arrive(left):
                if left:
                    server.submit()
                    env.call_later(arrivals.expovariate(rate), arrive,
                                   left - 1)

            if by_process:
                env.process(load(env))
            else:
                arrive(self.QUERIES)
            env.run()
            return {"samples": server.latency.samples,
                    "completed": server.completed,
                    "fallbacks": server.software_fallbacks,
                    "now": env.now}

        by_process, submitted = drive(True), drive(False)
        assert by_process == submitted
        assert submitted["completed"] == self.QUERIES
        if mode is not AccelerationMode.SOFTWARE:
            assert 0 < submitted["fallbacks"] < self.QUERIES

    @pytest.mark.parametrize("mode,entries", [
        (AccelerationMode.SOFTWARE, 1),
        (AccelerationMode.LOCAL_FPGA, 3),
        (AccelerationMode.REMOTE_FPGA, 3),
    ])
    def test_kernel_entries_per_query(self, mode, entries):
        """One entry per stage end: pre, features and post when
        accelerated, one software stage otherwise.  More queries than
        cores and slots, so waiting in a pool costs no entry either."""
        env = Environment()
        server = RankingServer(env, config(mode), rng=random.Random(1))
        for _ in range(self.QUERIES):
            server.submit()
        env.run()
        assert server.completed == self.QUERIES
        assert env.events_processed == entries * self.QUERIES

    @pytest.mark.parametrize("mode", [AccelerationMode.LOCAL_FPGA,
                                      AccelerationMode.REMOTE_FPGA])
    def test_fallback_query_is_one_entry(self, mode):
        env = Environment()
        server = RankingServer(env, config(mode), rng=random.Random(1))
        server.fail_fpga()
        for _ in range(self.QUERIES):
            server.submit()
        env.run()
        assert server.software_fallbacks == server.completed == self.QUERIES
        assert env.events_processed == self.QUERIES
