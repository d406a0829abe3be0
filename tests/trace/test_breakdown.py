"""The full-path decomposition under the default background jitter.

Traced one-way role-to-role requests over a ConfigurableCloud: the
hops must explain the end-to-end latency (residual under 1%, at least
five attributed hops, no tap out of time order), and a same-seed run
must report the same numbers.  The idle per-hop values themselves are
checked exactly in ``tests/net/test_idle_rtt_oracle.py``.
"""

import pytest

from repro import ConfigurableCloud, Stage, TraceRecorder

MESSAGES = 60
PAYLOAD_BYTES = 256
GAP_SECONDS = 20e-6
ROLE_SERVICE_SECONDS = 1.2e-6


def run_full_path(messages=MESSAGES, seed=0, sample_rate=0.05):
    cloud = ConfigurableCloud(seed=seed)
    cloud.add_server(0, enroll=False)
    cloud.add_server(1, enroll=False)
    cloud.connect(0, 1)
    env, sender = cloud.env, cloud.shell(0)
    recorder = TraceRecorder(sample_rate=sample_rate, seed=seed)

    def serve(ctx, _length):
        def finish():
            ctx.tap(Stage.ROLE_SERVICE, env.now)
            recorder.complete(ctx, env.now)
        env.call_later(ROLE_SERVICE_SECONDS, finish)

    cloud.shell(1).role_receive = serve

    def send(request):
        ctx = recorder.start(env.now, request_id=request)
        sender.remote_send(1, ctx, PAYLOAD_BYTES, trace=ctx)

    for request in range(messages):
        env.call_later(request * GAP_SECONDS, send, request)
    env.run(until=messages * GAP_SECONDS + 10e-3)
    return recorder.report()


@pytest.fixture(scope="module")
def report():
    return run_full_path()


def test_full_path_attributes_at_least_five_hops(report):
    report.check(max_residual=0.01, min_hops=5)
    assert report.spans == MESSAGES


def test_hops_plus_residual_equal_end_to_end(report):
    assert report.hop_sum_total + report.residual_total == \
        pytest.approx(report.e2e_total)


def test_runs_are_deterministic():
    a = run_full_path(messages=20, seed=7, sample_rate=0.25)
    b = run_full_path(messages=20, seed=7, sample_rate=0.25)
    assert (a.hops, a.e2e) == (b.hops, b.e2e)
    assert a.sampled_spans
    assert [s.marks for s in a.sampled_spans] == \
        [s.marks for s in b.sampled_spans]
