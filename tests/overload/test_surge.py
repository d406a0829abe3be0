"""End-to-end surge protection: the ISSUE 6 gates as a unit test.

A smaller, faster sibling of ``benchmarks/bench_overload_surge.py``:
deterministic seeds, one protected and one unprotected run of the same
flash crowd, asserting protection holds and its absence collapses.
"""

import random

import pytest

from repro.dnn.pool import DnnPool
from repro.overload import HedgeConfig, HedgeController, ServiceLevel
from repro.ranking.service import (
    AccelerationMode,
    OverloadConfig,
    RankingServiceConfig,
    RankingServer,
    run_surge,
    saturation_qps,
)
from repro.sim import Environment
from repro.workloads import FlashCrowdProfile


def surge_config(protected: bool) -> RankingServiceConfig:
    overload = OverloadConfig(protect=protected)
    return RankingServiceConfig(mode=AccelerationMode.LOCAL_FPGA,
                                overload=overload)


@pytest.fixture(scope="module")
def flash_crowd():
    capacity = saturation_qps(surge_config(protected=True))
    return FlashCrowdProfile(baseline_qps=0.6 * capacity,
                             surge_multiplier=5.0)


@pytest.fixture(scope="module")
def protected_result(flash_crowd):
    return run_surge(surge_config(True), flash_crowd, seed=42)


@pytest.fixture(scope="module")
def unprotected_result(flash_crowd):
    return run_surge(surge_config(False), flash_crowd, seed=42)


class TestProtectedSurge:
    def test_goodput_holds_through_the_surge(self, protected_result):
        pre = protected_result.phases["pre"]
        surge = protected_result.phases["surge"]
        assert pre.goodput_qps > 0
        assert surge.goodput_qps >= 0.85 * pre.goodput_qps

    def test_admitted_p99_bounded(self, protected_result):
        pre = protected_result.phases["pre"]
        surge = protected_result.phases["surge"]
        assert surge.latency.p99 <= 3.0 * pre.latency.p99

    def test_ladder_actually_engaged(self, protected_result):
        server = protected_result.server
        assert server.rejected > 0
        assert server.degraded_queries > 0

    def test_recovers_after_the_surge(self, protected_result):
        pre = protected_result.phases["pre"]
        post = protected_result.phases["post"]
        assert post.goodput_qps >= 0.9 * pre.goodput_qps

    def test_deterministic_replay(self, flash_crowd, protected_result):
        again = run_surge(surge_config(True), flash_crowd, seed=42)
        assert again.row() == protected_result.row()


class TestUnprotectedCollapse:
    def test_goodput_collapses(self, unprotected_result,
                               protected_result):
        """The regression guard: without the ladder the same crowd
        drives deadline-goodput to the floor — proving the protected
        numbers measure the protection, not a lenient workload."""
        pre = unprotected_result.phases["pre"]
        surge = unprotected_result.phases["surge"]
        assert surge.goodput_qps < 0.30 * pre.goodput_qps
        assert protected_result.phases["surge"].goodput_qps > \
            10 * surge.goodput_qps

    def test_queue_never_drains(self, unprotected_result):
        post = unprotected_result.phases["post"]
        # The unbounded queue is still digesting the crowd after it
        # passed; within-deadline completions stay collapsed.
        assert post.goodput_qps < 0.30 * \
            unprotected_result.phases["pre"].goodput_qps

    def test_nothing_was_shed(self, unprotected_result):
        server = unprotected_result.server
        assert server.rejected == 0
        assert server.degraded_queries == 0
        assert server.deadline_stats.total == 0


class TestRunSurgeContract:
    def test_requires_overload_config(self, flash_crowd):
        with pytest.raises(ValueError):
            run_surge(RankingServiceConfig(
                mode=AccelerationMode.LOCAL_FPGA), flash_crowd)


class TestHedgedPool:
    def test_hedging_tames_a_limplocked_fpga(self):
        """4-FPGA pool, one member 8x slow: hedging must cut P99 while
        staying inside its 5% extra-backend-load budget."""
        p99 = {}
        extra = {}
        for label in ("plain", "hedged"):
            env = Environment()
            pool = DnnPool(env, num_fpgas=4, rng=random.Random(1))
            pool.set_slow(0, 8.0)
            hedge = HedgeController(HedgeConfig())
            mean = pool.accelerators[0].mean_service_time
            period = mean / (0.4 * pool.num_fpgas)

            def client(env, pool=pool, hedge=hedge, label=label):
                for _ in range(1000):
                    if label == "hedged":
                        pool.request_hedged(hedge)
                    else:
                        pool.request()
                    yield env.timeout(period)

            env.process(client(env))
            env.run()
            p99[label] = pool.latency.p99
            extra[label] = pool.backend_served - pool.completed
            if label == "hedged":
                assert hedge.stats.hedge_fraction <= 0.05 + 1e-9
        assert p99["hedged"] < p99["plain"]
        assert extra["plain"] == 0
        assert extra["hedged"] <= 0.05 * 1000

    def test_deadline_drops_in_pool(self):
        env = Environment()
        pool = DnnPool(env, num_fpgas=1, rng=random.Random(0))
        # Already-expired work is refused at the door.
        pool.request(deadline=-1.0)
        env.run()
        assert pool.deadline_drops == 1
        assert pool.completed == 0
        assert pool.backend_served == 0
        assert env.now == 0.0
