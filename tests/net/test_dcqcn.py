"""Tests for the DC-QCN congestion-control state machines."""

from repro.net.dcqcn import CnpGenerator, DcqcnConfig, DcqcnRateController


class TestRateController:
    def test_starts_at_line_rate(self):
        rc = DcqcnRateController()
        assert rc.current_rate == rc.config.line_rate_bps

    def test_cnp_cuts_rate(self):
        rc = DcqcnRateController()
        before = rc.current_rate
        rc.on_cnp(now=0.0)
        assert rc.current_rate < before
        assert rc.rate_cuts == 1

    def test_cnp_rate_cut_respects_min_interval(self):
        config = DcqcnConfig(cnp_min_interval=50e-6)
        rc = DcqcnRateController(config)
        rc.on_cnp(now=0.0)
        rate_after_first = rc.current_rate
        rc.on_cnp(now=10e-6)  # within the min interval: alpha moves,
        assert rc.current_rate == rate_after_first  # rate does not
        rc.on_cnp(now=100e-6)
        assert rc.current_rate < rate_after_first

    def test_rate_never_below_floor(self):
        config = DcqcnConfig(min_rate_bps=1e6)
        rc = DcqcnRateController(config)
        for i in range(100):
            rc.on_cnp(now=i * 1e-3)
        assert rc.current_rate >= config.min_rate_bps

    def test_recovery_after_congestion_clears(self):
        rc = DcqcnRateController()
        rc.on_cnp(now=0.0)
        cut_rate = rc.current_rate
        t = 0.0
        for _ in range(200):
            t += rc.config.increase_period
            rc.on_increase_timer(now=t)
        assert rc.current_rate > cut_rate
        # Eventually back to (near) line rate.
        assert rc.current_rate >= 0.95 * rc.config.line_rate_bps

    def test_increase_timer_respects_period(self):
        rc = DcqcnRateController()
        rc.on_cnp(now=0.0)
        rate = rc.current_rate
        rc.on_increase_timer(now=1e-6)  # too soon after construction
        assert rc.current_rate == rate

    def test_alpha_decays_without_cnps(self):
        rc = DcqcnRateController()
        rc.on_cnp(now=0.0)
        alpha = rc.alpha
        rc.on_increase_timer(now=1.0)
        assert rc.alpha < alpha


class TestCnpGenerator:
    def test_first_mark_generates_cnp(self):
        gen = CnpGenerator()
        assert gen.on_marked_packet("flow", now=0.0)
        assert gen.cnps_sent == 1

    def test_cnp_paced_per_flow(self):
        gen = CnpGenerator(DcqcnConfig(cnp_generation_interval=50e-6))
        assert gen.on_marked_packet("flow", now=0.0)
        assert not gen.on_marked_packet("flow", now=10e-6)
        assert gen.on_marked_packet("flow", now=60e-6)

    def test_flows_paced_independently(self):
        gen = CnpGenerator()
        assert gen.on_marked_packet("a", now=0.0)
        assert gen.on_marked_packet("b", now=0.0)
