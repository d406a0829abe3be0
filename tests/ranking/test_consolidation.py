"""Tests for the FPGA consolidation study."""

from repro.ranking import (
    ConsolidationConfig,
    consolidation_sweep,
    run_consolidation_point,
)


class TestConsolidationPoint:
    def test_all_queries_complete(self):
        result = run_consolidation_point(
            ConsolidationConfig(num_servers=2, num_fpgas=2),
            queries_per_server=100)
        assert result.queries_completed == 200

    def test_one_to_one_underutilized(self):
        """The §III-A claim: a single server leaves its FPGA idle most
        of the time."""
        result = run_consolidation_point(
            ConsolidationConfig(num_servers=1, num_fpgas=1),
            queries_per_server=200)
        assert result.fpga_utilization < 0.6

    def test_utilization_grows_with_consolidation(self):
        sweep = consolidation_sweep([1, 2, 3], num_fpgas=2,
                                    queries_per_server=150)
        utils = [r.fpga_utilization for r in sweep]
        assert utils == sorted(utils)
        assert utils[-1] > utils[0] * 1.5

    def test_two_to_one_latency_stays_flat(self):
        """Doubling servers per FPGA costs little latency while the pool
        has headroom."""
        one, two = consolidation_sweep([1, 2], num_fpgas=2,
                                       queries_per_server=200)
        assert two.latency.p99 < 2.5 * one.latency.p99

    def test_saturation_spikes_latency(self):
        sweep = consolidation_sweep([2, 4], num_fpgas=2,
                                    queries_per_server=200)
        comfortable, saturated = sweep
        assert saturated.fpga_utilization > 0.9
        assert saturated.latency.p99 > 3 * comfortable.latency.p99

    def test_deterministic(self):
        config = ConsolidationConfig(num_servers=2, num_fpgas=1)
        a = run_consolidation_point(config, queries_per_server=80,
                                    seed=4)
        b = run_consolidation_point(config, queries_per_server=80,
                                    seed=4)
        assert a.latency.samples == b.latency.samples

    def test_row_keys(self):
        result = run_consolidation_point(
            ConsolidationConfig(num_servers=1, num_fpgas=1),
            queries_per_server=50)
        row = result.row()
        assert set(row) == {"servers_per_fpga", "fpga_utilization",
                            "p99_ms", "mean_ms", "completed"}
