"""Trace attribution across LTL go-back-N retransmits.

The wire/switch marks of a doomed traversal must be rolled back and the
whole first-transmit -> retransmit interval must land in the ``ltl.retx``
bucket — never double-counting the physical hops the lost frame already
paid for.  Uses the fabric's delivery-tap hook to drop exactly one
TOR->host packet, forcing a timer-driven retransmission on the otherwise
healthy full datapath.
"""

import pytest

from repro.core.cloud import ConfigurableCloud
from repro.trace import Stage, TraceRecorder


def _run_with_drops(drop_first_n: int, messages: int = 5):
    """Traced one-way sends over the full path, dropping the first N
    data deliveries to the receiving host."""
    cloud = ConfigurableCloud(seed=0)
    cloud.add_server(0, enroll=False)
    cloud.add_server(1, enroll=False)
    cloud.connect(0, 1)
    env = cloud.env
    recorder = TraceRecorder(sample_rate=1.0, seed=0, max_spans=messages)
    shell_a, shell_b = cloud.shell(0), cloud.shell(1)

    def role_receive(payload, _length):
        # Payload IS the span's context; close it on arrival.
        payload.tap(Stage.ROLE_SERVICE, env.now)
        recorder.complete(payload, env.now)

    shell_b.role_receive = role_receive

    remaining = [drop_first_n]

    def drop_tap(packet):
        if remaining[0] > 0:
            remaining[0] -= 1
            return None      # swallow the delivery: frame lost on the floor
        return packet

    cloud.fabric.install_tap(1, drop_tap)

    def driver(env):
        for i in range(messages):
            ctx = recorder.start(env.now, request_id=i)
            shell_a.remote_send(1, ctx, 128, trace=ctx)
            yield env.timeout(200e-6)   # > retransmit timeout (50 us)

    env.process(driver(env))
    env.run(until=env.now + messages * 200e-6 + 5e-3)
    return cloud, recorder.report()


def test_clean_run_has_no_retx_bucket():
    cloud, report = _run_with_drops(0)
    assert report.spans == 5
    assert Stage.LTL_RETX.value not in report.hops
    assert cloud.shell(0).ltl.stats.retransmissions == 0


def test_dropped_frame_lands_in_retx_bucket():
    cloud, report = _run_with_drops(1)
    assert report.spans == 5
    assert cloud.shell(0).ltl.stats.retransmissions >= 1
    retx = report.hops[Stage.LTL_RETX.value]
    assert retx["count"] == 1
    # The bucket holds the full loss -> retransmission wait, so it is at
    # least the 50 us retransmit timeout.
    assert retx["total"] >= 50e-6


def test_retransmit_does_not_double_count_physical_hops():
    _cloud, report = _run_with_drops(1)
    assert report.spans == 5
    # Per-span forensics: every span, including the retransmitted one,
    # crosses the TOR exactly once and runs the MAC egress pipeline once.
    assert len(report.sampled_spans) == 5
    for span in report.sampled_spans:
        stages = [s for s, _ in span.marks]
        assert stages.count(Stage.SWITCH_TOR.value) == 1, span.marks
        assert stages.count(Stage.SHELL_MAC_RX.value) == 1, span.marks
        # Interval attribution stays exact even across the rollback.
        total = sum(d for _, d in span.durations())
        assert total == pytest.approx(span.e2e, rel=1e-9)


def test_retransmitted_span_is_slower_but_honest():
    _cloud, clean = _run_with_drops(0)
    _cloud, lossy = _run_with_drops(1)
    # Aggregate accounting still reconstructs exactly and the residual
    # gate still passes — retransmission cannot leak unattributed time.
    assert lossy.hop_sum_total + lossy.residual_total == \
        pytest.approx(lossy.e2e_total)
    lossy.check(max_residual=0.01, min_hops=5)
    # The lossy run's worst span pays the timeout; the clean one doesn't.
    worst_clean = max(s.e2e for s in clean.sampled_spans)
    worst_lossy = max(s.e2e for s in lossy.sampled_spans)
    assert worst_lossy > worst_clean + 40e-6
    # Non-retransmitted spans are unaffected (modulo per-packet switch
    # jitter, whose RNG stream shifts once a packet is dropped).
    best_lossy = min(s.e2e for s in lossy.sampled_spans)
    assert best_lossy == pytest.approx(min(s.e2e for s in clean.sampled_spans),
                                       rel=0.01)
