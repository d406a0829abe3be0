"""Tests for metrics helpers, Server, and the ConfigurableCloud facade."""

import pytest

from repro.core import ConfigurableCloud, LatencyRecorder
from repro.net import TopologyConfig, idle


class TestLatencyRecorder:
    def test_percentiles(self):
        recorder = LatencyRecorder()
        recorder.extend([i / 1000 for i in range(1, 101)])
        assert recorder.p50 == pytest.approx(0.0505, rel=0.01)
        assert recorder.p99 <= recorder.p999 <= recorder.max

    def test_mean(self):
        recorder = LatencyRecorder()
        recorder.extend([1.0, 2.0, 3.0])
        assert recorder.mean == 2.0

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            LatencyRecorder().record(-1.0)

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            LatencyRecorder().mean

    def test_summary_keys(self):
        recorder = LatencyRecorder()
        recorder.record(1.0)
        assert set(recorder.summary()) == {
            "count", "mean", "p50", "p95", "p99", "p999", "max"}


class TestConfigurableCloud:
    def _cloud(self):
        return ConfigurableCloud(
            topology=TopologyConfig(background=idle()), seed=3)

    def test_add_server_and_lookup(self):
        cloud = self._cloud()
        server = cloud.add_server(0)
        assert cloud.server(0) is server
        assert cloud.shell(0) is server.shell
        assert server.fpga is server.shell

    def test_duplicate_server_rejected(self):
        cloud = self._cloud()
        cloud.add_server(0)
        with pytest.raises(ValueError):
            cloud.add_server(0)

    def test_add_servers_bulk(self):
        cloud = self._cloud()
        servers = cloud.add_servers([0, 1, 2])
        assert len(servers) == 3
        assert cloud.resource_manager.pool_size == 3

    def test_enroll_false_keeps_out_of_pool(self):
        cloud = self._cloud()
        cloud.add_server(0, enroll=False)
        assert cloud.resource_manager.pool_size == 0

    def test_host_to_host_traffic_through_fpgas(self):
        cloud = self._cloud()
        a = cloud.add_server(0)
        b = cloud.add_server(1)
        got = []
        b.on_packet(lambda p: got.append(p.payload))
        a.send_to(1, b"app data")
        cloud.run(until=1e-3)
        assert got == [b"app data"]
        assert a.packets_sent == 1
        assert b.packets_received == 1

    def test_measure_ltl_rtt_l0(self):
        cloud = self._cloud()
        cloud.add_server(0)
        cloud.add_server(1)
        rtts = cloud.measure_ltl_rtt(0, 1, messages=20)
        assert len(rtts) == 20
        mean = sum(rtts) / len(rtts)
        assert mean == pytest.approx(2.88e-6, rel=0.03)

    def test_measure_rtt_l2_slower_than_l0(self):
        cloud = self._cloud()
        cloud.add_servers([0, 1, 2, 100_000])
        l0 = cloud.measure_ltl_rtt(0, 1, messages=10)
        l2 = cloud.measure_ltl_rtt(2, 100_000, messages=10)
        assert min(l2) > max(l0)


class TestLatencyRecorderCachedView:
    def test_queries_match_fresh_sort_after_interleaved_updates(self):
        import random as _random
        from repro.sim.randomness import percentile as exact

        rng = _random.Random(3)
        recorder = LatencyRecorder()
        recorder.extend(rng.random() for _ in range(500))
        recorder.summary()            # populate the cached sorted view
        recorder.record(2.5)          # must invalidate it
        recorder.extend(rng.random() for _ in range(100))
        view = sorted(recorder.samples)
        for q in (50, 95, 99, 99.9):
            assert recorder.percentile(q) == exact(view, q)
        summary = recorder.summary()
        assert summary["max"] == max(recorder.samples)
        assert summary["count"] == 601.0


def test_cloud_uses_caller_supplied_env():
    """Environment defines __len__, so an empty env is falsy — the cloud
    must None-check rather than `env or ...`, which silently discarded
    a caller's env."""
    from repro.sim import Environment
    env = Environment()
    cloud = ConfigurableCloud(env=env, seed=3)
    assert cloud.env is env
