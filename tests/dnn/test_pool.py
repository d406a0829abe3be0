"""Tests for the DNN pool and the oversubscription study (Fig. 12)."""

import pytest

from repro.dnn.pool import (
    DnnPool,
    RemoteNetworkModel,
    oversubscription_sweep,
    run_oversubscription_point,
)
from repro.sim import Environment, RandomStreams


class TestDnnPool:
    def test_requests_complete(self):
        env = Environment()
        pool = DnnPool(env, num_fpgas=2,
                       rng=RandomStreams(seed=1).stream("dnn-pool"))
        for _ in range(10):
            pool.request()
        env.run()
        assert pool.completed == 10
        assert pool.latency.count == 10

    def test_join_shortest_queue_balances(self):
        env = Environment()
        pool = DnnPool(env, num_fpgas=4,
                       rng=RandomStreams(seed=2).stream("dnn-pool"))
        for _ in range(40):
            pool.request()
        env.run()
        # With JSQ, finishing 40 identical requests on 4 FPGAs takes about
        # 10 rounds of the mean service time.
        mean = pool.accelerators[0].mean_service_time
        assert env.now == pytest.approx(10 * mean, rel=0.35)

    def test_empty_pool_rejected(self):
        with pytest.raises(ValueError):
            DnnPool(Environment(), num_fpgas=0,
                    rng=RandomStreams(seed=4).stream("dnn-pool"))

    def test_remote_adds_latency(self):
        from repro.dnn.accelerator import DnnAcceleratorConfig
        deterministic = DnnAcceleratorConfig(service_sigma=1e-9)
        env = Environment()
        local = DnnPool(env, num_fpgas=1,
                        rng=RandomStreams(seed=5).stream("dnn-pool"),
                        accelerator_config=deterministic)
        local.request()
        env.run()
        local_latency = local.latency.samples[0]

        env2 = Environment()
        remote_model = RemoteNetworkModel(tail_probability=0.0,
                                          retransmit_probability=0.0)
        remote = DnnPool(env2, num_fpgas=1, remote=remote_model,
                         rng=RandomStreams(seed=5).stream("dnn-pool"),
                         accelerator_config=deterministic)
        remote.request()
        env2.run()
        assert remote.latency.samples[0] > local_latency


class TestRemoteNetworkModel:
    def test_base_delay_components(self):
        model = RemoteNetworkModel(round_trip=3e-6, request_bytes=1000,
                                   response_bytes=0,
                                   ltl_bandwidth_bps=8e9,
                                   per_message_overhead=1e-6)
        assert model.base_delay() == pytest.approx(3e-6 + 1e-6 + 2e-6)

    def test_sample_at_least_base(self):
        import random
        model = RemoteNetworkModel(tail_probability=0.0,
                                   retransmit_probability=0.0)
        rng = random.Random(0)
        for _ in range(50):
            assert model.sample(rng) >= 0.9 * model.base_delay()

    def test_tail_events_appear(self):
        import random
        model = RemoteNetworkModel(tail_probability=1.0)
        rng = random.Random(0)
        sample = model.sample(rng)
        assert sample >= model.tail_min


class TestOversubscription:
    def test_one_to_one_remote_overheads(self):
        """§V-E: at 1:1, remote adds ~1% avg, ~4.7% 95th, ~32% 99th —
        we assert the *shape*: small avg, modest 95th, large 99th."""
        local = run_oversubscription_point(8, 8, remote=None,
                                           requests_per_client=400)
        remote = run_oversubscription_point(
            8, 8, remote=RemoteNetworkModel(), requests_per_client=400)
        avg = remote.latency.mean / local.latency.mean - 1
        p95 = remote.latency.p95 / local.latency.p95 - 1
        p99 = remote.latency.p99 / local.latency.p99 - 1
        assert 0.0 < avg < 0.08
        assert avg < p99
        assert 0.10 < p99 < 0.60

    def test_latency_spikes_near_3x(self):
        """Fig. 12: flat-ish until the pool approaches saturation at
        ~3 stress clients per FPGA, then latency spikes."""
        low = run_oversubscription_point(8, 8,
                                         remote=RemoteNetworkModel(),
                                         requests_per_client=200)
        near = run_oversubscription_point(9, 3,
                                          remote=RemoteNetworkModel(),
                                          requests_per_client=200)
        assert near.latency.p99 > 2.5 * low.latency.p99

    def test_sweep_monotone_oversubscription(self):
        results = oversubscription_sweep(
            [1.0, 2.0], base_fpgas=6, remote=RemoteNetworkModel(),
            requests_per_client=120)
        assert results[0].oversubscription == pytest.approx(1.0)
        assert results[1].oversubscription == pytest.approx(2.0)
        assert results[1].latency.mean >= results[0].latency.mean * 0.9

    def test_result_row(self):
        result = run_oversubscription_point(2, 2, requests_per_client=50)
        row = result.row()
        assert row["clients"] == 2.0
        assert "p99" in row
