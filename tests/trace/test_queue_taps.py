"""Trace taps on the query path: ranking server stages and the DNN pool.

Every query carries a span from its arrival.  Its last tap is taken the
instant it completes, so the hops of each span must add up to the
latency the server (or pool) recorded for it, with nothing left over.
Spans are matched to latency samples in completion order.
"""

import random

import pytest

from repro.dnn.pool import DnnPool, RemoteNetworkModel
from repro.ranking import (
    AccelerationMode,
    RankingServer,
    RankingServiceConfig,
    saturation_qps,
)
from repro.sim import Environment, RandomStreams
from repro.trace import Stage, TraceRecorder

QUERIES = 300

SOFTWARE_HOPS = {Stage.CORE_QUEUE, Stage.CORE_SOFTWARE}
ACCELERATED_HOPS = {Stage.CORE_QUEUE, Stage.SW_PRE, Stage.FPGA_QUEUE,
                    Stage.ROLE_SERVICE, Stage.POST_QUEUE, Stage.SW_POST}


def close_spans(recorder, spans, samples):
    """Complete each span at its query's recorded completion and check
    that its hops account for that latency exactly."""
    assert len(spans) == len(samples)
    for ctx, latency in zip(sorted(spans, key=lambda c: c.last_time),
                            samples):
        assert ctx.last_time - ctx.t0 == latency
        assert sum(d for _, d in ctx.durations()) == pytest.approx(latency)
        recorder.complete(ctx, ctx.t0 + latency)
    report = recorder.report()
    assert report.spans == len(samples)
    report.check(max_residual=1e-9, min_hops=1)
    return report


@pytest.mark.parametrize("mode", list(AccelerationMode))
def test_ranking_spans_account_for_query_latency(mode):
    config = RankingServiceConfig(mode=mode)
    rate = 0.8 * saturation_qps(config, num_queries=400)
    env = Environment()
    server = RankingServer(env, config, rng=random.Random(1))
    arrivals = random.Random(0)
    recorder = TraceRecorder()
    spans = []

    def load(env):
        for i in range(QUERIES):
            work = config.workload.sample(server.rng)
            work.trace = recorder.start(env.now, request_id=i)
            spans.append(work.trace)
            env.process(server.handle_query(work))
            yield env.timeout(arrivals.expovariate(rate))

    env.process(load(env))
    if mode is not AccelerationMode.SOFTWARE:
        # A window with the FPGA lost: those queries fall back to
        # software and tap the software stages instead.
        end = QUERIES / rate
        env.call_at(0.3 * end, server.fail_fpga)
        env.call_at(0.5 * end, server.restore_fpga)
    env.run()

    report = close_spans(recorder, spans, server.latency.samples)
    expected = SOFTWARE_HOPS if mode is AccelerationMode.SOFTWARE \
        else SOFTWARE_HOPS | ACCELERATED_HOPS
    assert set(report.hops) == {stage.value for stage in expected}
    if mode is not AccelerationMode.SOFTWARE:
        assert 0 < server.software_fallbacks < QUERIES


def test_remote_pool_spans_account_for_request_latency():
    env = Environment()
    pool = DnnPool(env, num_fpgas=4,
                   rng=RandomStreams(seed=3).stream("dnn-pool"),
                   remote=RemoteNetworkModel())
    rate = 0.8 * pool.num_fpgas * pool.accelerators[0].capacity_rps
    arrivals = random.Random(2)
    recorder = TraceRecorder()
    spans = []

    def client(env):
        for i in range(QUERIES):
            ctx = recorder.start(env.now, request_id=i)
            spans.append(ctx)
            pool.request(trace=ctx)
            yield env.timeout(arrivals.expovariate(rate))

    env.process(client(env))
    env.run()

    report = close_spans(recorder, spans, pool.latency.samples)
    assert set(report.hops) == {Stage.POOL_NET.value, Stage.POOL_QUEUE.value,
                                Stage.ROLE_SERVICE.value}
    for ctx in spans:
        stages = [stage for stage, _ in ctx.marks]
        assert stages == [Stage.POOL_NET, Stage.POOL_QUEUE,
                          Stage.ROLE_SERVICE, Stage.POOL_NET]
