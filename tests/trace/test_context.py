"""TraceContext / TraceRecorder invariants: honest accounting by construction."""

import random

import pytest

from repro.sim.randomness import percentile
from repro.trace import Stage, TraceContext, TraceRecorder


def test_tap_attributes_interval_since_previous_mark():
    ctx = TraceContext(t0=10.0)
    ctx.tap(Stage.ER_INGRESS, 10.5)
    ctx.tap(Stage.ER_SWITCH, 11.25)
    ctx.tap(Stage.LINK_WIRE, 13.0)
    assert ctx.durations() == [
        (Stage.ER_INGRESS, 0.5),
        (Stage.ER_SWITCH, 0.75),
        (Stage.LINK_WIRE, 1.75),
    ]
    assert ctx.last_time == 13.0


def test_durations_sum_to_last_mark_minus_t0():
    ctx = TraceContext(t0=1.0)
    for i, stage in enumerate(
            (Stage.LTL_TX, Stage.LINK_WIRE, Stage.LINK_WIRE, Stage.LTL_RX)):
        ctx.tap(stage, 1.0 + 0.1 * (i + 1))
    total = sum(d for _, d in ctx.durations())
    assert total == pytest.approx(ctx.last_time - ctx.t0)


def test_totals_aggregates_repeated_stages():
    ctx = TraceContext(t0=0.0)
    ctx.tap(Stage.LINK_WIRE, 1.0)   # 1.0
    ctx.tap(Stage.SWITCH_TOR, 1.5)  # 0.5
    ctx.tap(Stage.LINK_WIRE, 3.0)   # 1.5 — second physical wire hop
    totals = ctx.totals()
    assert totals[Stage.LINK_WIRE] == pytest.approx(2.5)
    assert totals[Stage.SWITCH_TOR] == pytest.approx(0.5)


def test_checkpoint_rewind_discards_doomed_marks():
    ctx = TraceContext(t0=0.0)
    ctx.tap(Stage.LTL_TX, 1.0)
    cp = ctx.checkpoint()
    ctx.tap(Stage.SHELL_MAC_TX, 2.0)
    ctx.tap(Stage.SWITCH_TOR, 3.0)
    ctx.rewind(cp)
    ctx.tap(Stage.LTL_RETX, 5.0)
    assert [s for s, _ in ctx.marks] == [Stage.LTL_TX, Stage.LTL_RETX]
    # The retransmit bucket absorbed the whole doomed interval.
    assert ctx.totals()[Stage.LTL_RETX] == pytest.approx(4.0)


def test_insert_places_a_late_mark_in_time_order():
    ctx = TraceContext(t0=0.0)
    ctx.tap(Stage.LTL_RX, 1.0)
    ctx.tap(Stage.LINK_WIRE, 2.0)   # a duplicate frame's tap
    ctx.insert(Stage.ER_INGRESS, 1.5)
    ctx.insert(Stage.SWITCH_TOR, 2.0)  # ties go after the existing mark
    ctx.tap(Stage.ER_SWITCH, 3.0)
    assert ctx.marks == [
        (Stage.LTL_RX, 1.0), (Stage.ER_INGRESS, 1.5),
        (Stage.LINK_WIRE, 2.0), (Stage.SWITCH_TOR, 2.0),
        (Stage.ER_SWITCH, 3.0)]
    assert all(d >= 0 for _, d in ctx.durations())


def test_empty_context_last_time_is_t0():
    ctx = TraceContext(t0=7.0)
    assert ctx.last_time == 7.0
    assert ctx.durations() == []
    assert ctx.totals() == {}


# ----------------------------------------------------------------------
# Recorder
# ----------------------------------------------------------------------
def _span(recorder, t0, hops):
    """Open a span at ``t0``, tap ``hops`` [(stage, at)...], complete at last."""
    ctx = recorder.start(t0)
    for stage, at in hops:
        ctx.tap(stage, at)
    recorder.complete(ctx, hops[-1][1])
    return ctx


def test_recorder_reconstruction_is_exact():
    recorder = TraceRecorder()
    _span(recorder, 0.0, [(Stage.LTL_TX, 0.25), (Stage.LINK_WIRE, 1.0)])
    _span(recorder, 5.0, [(Stage.LTL_TX, 5.5), (Stage.LINK_WIRE, 7.0)])
    report = recorder.report()
    assert report.spans == 2
    assert report.hop_sum_total + report.residual_total == \
        pytest.approx(report.e2e_total)
    assert report.residual_total == 0.0
    report.check(min_hops=2)


def test_recorder_residual_is_tail_after_last_tap():
    recorder = TraceRecorder()
    ctx = recorder.start(0.0)
    ctx.tap(Stage.ROLE_SERVICE, 0.9)
    recorder.complete(ctx, 1.0)     # 0.1 unattributed
    report = recorder.report()
    assert report.residual_total == pytest.approx(0.1)
    assert report.residual_fraction == pytest.approx(0.1)
    with pytest.raises(AssertionError, match="residual"):
        report.check(max_residual=0.01, min_hops=1)


def test_recorder_min_hops_gate():
    recorder = TraceRecorder()
    _span(recorder, 0.0, [(Stage.ROLE_SERVICE, 1.0)])
    with pytest.raises(AssertionError, match="hops"):
        recorder.report().check(min_hops=5)


def test_check_rejects_a_tap_out_of_time_order():
    """Stage durations telescope, so hop sum + residual still equals e2e
    when a tap lands out of order; the negative duration must fail.  The
    span crosses two ERs, so the late mark's stage still sums positive."""
    recorder = TraceRecorder()
    ctx = recorder.start(0.0)
    ctx.tap(Stage.ER_INGRESS, 0.75)  # sending shell's ER
    ctx.tap(Stage.LTL_RX, 1.0)
    ctx.tap(Stage.LINK_WIRE, 2.0)    # a duplicate frame's tap
    ctx.tap(Stage.ER_INGRESS, 1.5)   # receiving ER, appended late: -0.5 s
    ctx.tap(Stage.ER_SWITCH, 3.0)
    recorder.complete(ctx, 3.0)
    report = recorder.report()
    assert report.non_monotonic_spans == 1
    assert report.hop_sum_total + report.residual_total == \
        pytest.approx(report.e2e_total)
    with pytest.raises(AssertionError, match="negative stage duration"):
        report.check(min_hops=1)


def test_abandoned_span_out_of_time_order_is_counted():
    recorder = TraceRecorder()
    ctx = recorder.start(0.0)
    ctx.tap(Stage.LINK_WIRE, 1.0)
    ctx.tap(Stage.SWITCH_TOR, 2.0)
    ctx.tap(Stage.LINK_WIRE, 1.5)   # -0.5 s
    ctx.abandon(2.5)
    assert recorder.report().non_monotonic_spans == 1


def test_hop_count_is_per_span_not_per_tap():
    recorder = TraceRecorder()
    _span(recorder, 0.0, [(Stage.LINK_WIRE, 1.0), (Stage.SWITCH_TOR, 1.5),
                          (Stage.LINK_WIRE, 2.0)])
    report = recorder.report()
    # link.wire tapped twice in the one span, recorded as one summed hop.
    assert report.hops["link.wire"]["count"] == 1
    assert report.hops["link.wire"]["total"] == pytest.approx(1.5)


def test_sampling_is_deterministic_and_bounded():
    def capture(seed):
        recorder = TraceRecorder(sample_rate=0.5, seed=seed, max_spans=8)
        for i in range(64):
            ctx = recorder.start(float(i), request_id=i)
            ctx.tap(Stage.ROLE_SERVICE, i + 0.5)
            recorder.complete(ctx, i + 0.5)
        return [s.request_id for s in recorder.report().sampled_spans]

    assert capture(3) == capture(3)
    assert capture(3) != capture(4)
    assert len(capture(3)) <= 8


def test_sampled_span_marks_are_copied():
    recorder = TraceRecorder(sample_rate=1.0, seed=0, max_spans=4)
    ctx = recorder.start(0.0, request_id="r")
    ctx.tap(Stage.LTL_TX, 0.5)
    recorder.complete(ctx, 0.5)
    ctx.rewind(0)  # later mutation must not corrupt the stored span
    span = recorder.report().sampled_spans[0]
    assert span.marks == (("ltl.tx", 0.5),)
    assert span.e2e == pytest.approx(0.5)
    assert span.durations() == [("ltl.tx", 0.5)]


def test_recorder_rejects_bad_sample_rate():
    with pytest.raises(ValueError):
        TraceRecorder(sample_rate=1.5)


def test_report_format_table_and_fields():
    recorder = TraceRecorder()
    for i in range(10):
        _span(recorder, float(i),
              [(Stage.LTL_TX, i + 0.25), (Stage.ROLE_SERVICE, i + 1.0)])
    report = recorder.report()
    table = report.format_table()
    assert "ltl.tx" in table and "role.service" in table
    assert "end-to-end" in table
    assert report.spans == 10
    assert report.residual_fraction == 0.0
    assert set(report.hops) == {"ltl.tx", "role.service"}
    for entry in report.hops.values():
        assert {"count", "total", "mean", "share",
                "p50", "p99", "p99_9"} <= set(entry)


def test_report_quantiles_are_exact_on_drifting_durations():
    """Non-stationary durations (a queue that builds up, then a late
    burst of slow service) must not bias the report: every hop and
    end-to-end quantile is the exact percentile of what was recorded."""
    rng = random.Random(7)
    recorder = TraceRecorder()
    durations = {"ltl.tx": [], "role.service": [], "end-to-end": []}
    for i in range(1500):
        t0 = i * 1e-3
        tx = t0 + 1e-6 * (1.0 + i / 150.0) * rng.uniform(0.9, 1.1)
        slow = 40e-6 if i >= 1300 and i % 3 else 0.0
        end = tx + 5e-6 * rng.uniform(0.8, 1.2) + slow
        ctx = _span(recorder, t0,
                    [(Stage.LTL_TX, tx), (Stage.ROLE_SERVICE, end)])
        for stage, duration in ctx.totals().items():
            durations[stage.value].append(duration)
        durations["end-to-end"].append(end - t0)
    report = recorder.report()
    rows = dict(report.hops, **{"end-to-end": report.e2e})
    for name, values in durations.items():
        exact = sorted(values)
        for key, q in (("p50", 50.0), ("p99", 99.0), ("p99_9", 99.9)):
            assert rows[name][key] == percentile(exact, q), (name, key)


# ----------------------------------------------------------------------
# Abandon: spans closed at a drop point must be counted, not leaked
# ----------------------------------------------------------------------
def test_abandon_counts_span_and_keeps_accounting_exact():
    recorder = TraceRecorder()
    ctx = recorder.start(0.0)
    ctx.tap(Stage.LTL_TX, 0.25)
    ctx.tap(Stage.LINK_WIRE, 0.75)
    ctx.abandon(1.0)  # dropped 0.25 s after the last tap
    report = recorder.report()
    assert recorder.abandoned == 1
    assert report.abandoned_spans == 1
    assert report.spans == 0  # no normal completion
    # Honest accounting still holds exactly: hop time + residual == e2e.
    assert report.hop_sum_total == pytest.approx(0.75)
    assert report.residual_total == pytest.approx(0.25)
    assert report.e2e_total == pytest.approx(1.0)
    assert report.hop_sum_total + report.residual_total == \
        pytest.approx(report.e2e_total)
    # The drop's hop durations are folded in, but the truncated span
    # must not pollute the end-to-end latency quantiles.
    assert not report.e2e


def test_abandon_is_idempotent_and_noop_after_complete():
    recorder = TraceRecorder()
    ctx = recorder.start(0.0)
    ctx.tap(Stage.LTL_TX, 0.5)
    ctx.abandon(1.0)
    ctx.abandon(2.0)  # double-drop: must not double-count
    assert recorder.abandoned == 1
    done = recorder.start(0.0)
    done.tap(Stage.LTL_TX, 0.5)
    recorder.complete(done, 1.0)
    done.abandon(2.0)  # drop after delivery: too late, a no-op
    assert recorder.abandoned == 1
    assert recorder.completed == 1


def test_complete_after_abandon_is_noop():
    recorder = TraceRecorder()
    ctx = recorder.start(0.0)
    ctx.abandon(1.0)
    recorder.complete(ctx, 2.0)
    assert recorder.completed == 0
    assert recorder.abandoned == 1


def test_bare_context_abandon_just_closes():
    ctx = TraceContext(t0=0.0)
    assert not ctx.closed
    ctx.abandon(1.0)
    assert ctx.closed
