"""Tests for the five-day trace."""

import pytest

from repro.workloads import (
    DiurnalTraceConfig,
    apply_load_balancer_cap,
    five_day_trace,
)


class TestFiveDayTrace:
    def test_length(self):
        config = DiurnalTraceConfig()
        trace = five_day_trace(config)
        assert len(trace) == config.days * config.windows_per_day

    def test_deterministic(self):
        a = five_day_trace(DiurnalTraceConfig(seed=9))
        b = five_day_trace(DiurnalTraceConfig(seed=9))
        assert [s.software_offered for s in a] == \
            [s.software_offered for s in b]

    def test_diurnal_variation_present(self):
        trace = five_day_trace()
        day0 = [s.software_offered for s in trace if s.day == 0]
        assert max(day0) > 1.4 * min(day0)

    def test_mean_load_near_base(self):
        trace = five_day_trace()
        mean = sum(s.software_offered for s in trace) / len(trace)
        assert mean == pytest.approx(1.0, rel=0.15)

    def test_fpga_dc_sees_higher_demand(self):
        config = DiurnalTraceConfig()
        trace = five_day_trace(config)
        assert all(s.fpga_offered == pytest.approx(
            s.software_offered * config.fpga_demand_multiplier)
            for s in trace)

    def test_loads_positive(self):
        assert all(s.software_offered > 0 for s in five_day_trace())

    def test_time_axis_monotone(self):
        trace = five_day_trace()
        times = [s.time_days for s in trace]
        assert times == sorted(times)
        assert times[-1] < 5.0

    def test_load_balancer_cap(self):
        assert apply_load_balancer_cap(2.5, 1.2) == 1.2
        assert apply_load_balancer_cap(0.8, 1.2) == 0.8
