"""Tests for the Catapult v1 torus baseline."""

import random

import pytest

from repro.torus import TorusLatencyModel, TorusTopology


class TestTopology:
    def test_6x8_has_48_nodes(self):
        assert TorusTopology().num_nodes == 48

    def test_coord_roundtrip(self):
        torus = TorusTopology()
        for node in range(48):
            assert torus.node(torus.coord(node)) == node

    def test_neighbors_wrap(self):
        torus = TorusTopology()
        neighbors = torus.neighbors((0, 0))
        assert (5, 0) in neighbors  # x wraps
        assert (0, 7) in neighbors  # y wraps
        assert len(neighbors) == 4

    def test_dimension_order_path_endpoints(self):
        torus = TorusTopology()
        path = torus.dimension_order_path(0, 47)
        assert path[0] == torus.coord(0)
        assert path[-1] == torus.coord(47)

    def test_hops_nearest_neighbor(self):
        torus = TorusTopology()
        assert torus.hops(0, 1) == 1

    def test_max_hops_is_7(self):
        """6x8 torus diameter: 3 + 4 = 7 (the paper's worst case)."""
        torus = TorusTopology()
        assert torus.max_hops() == 7
        worst = max(torus.hops(0, dst) for dst in range(1, 48))
        assert worst == 7

    def test_wraparound_shortens_path(self):
        torus = TorusTopology()
        # (0,0) -> (5,0): 1 hop via wrap, not 5.
        assert torus.hops(0, 5) == 1

    def test_invalid_node_rejected(self):
        with pytest.raises(ValueError):
            TorusTopology().coord(48)

    def test_small_torus_rejected(self):
        with pytest.raises(ValueError):
            TorusTopology(width=1, height=8)


class TestFailures:
    def test_reroute_costs_extra_hops(self):
        """'Packets need to be dynamically rerouted around a faulty FPGA
        at the cost of extra network hops and latency.'"""
        torus = TorusTopology()
        baseline = torus.hops(0, 2)
        torus.fail_node(1)  # node on the dimension-order path
        rerouted = torus.hops(0, 2)
        assert rerouted is not None
        assert rerouted >= baseline

    def test_failed_destination_unreachable(self):
        torus = TorusTopology()
        torus.fail_node(5)
        assert torus.hops(0, 5) is None

    def test_isolation_under_failure_pattern(self):
        """'Causing ... isolation of nodes under certain failure
        patterns': killing all 4 neighbors isolates a node."""
        torus = TorusTopology()
        victim = (2, 2)
        for neighbor in torus.neighbors(victim):
            torus.fail_node(torus.node(neighbor))
        assert torus.hops(0, torus.node(victim)) is None

    def test_healthy_reroute_preserves_reachability(self):
        torus = TorusTopology()
        torus.fail_node(7)
        torus.fail_node(13)
        model = TorusLatencyModel(torus)
        # All non-failed pairs still reachable with 2 scattered failures.
        assert model.reachable_count(0) == 45


class TestLatencyModel:
    def test_one_hop_rtt_about_1us(self):
        """'Nearest neighbor (1-hop) communication had a round-trip
        latency of approximately 1 us.'"""
        model = TorusLatencyModel(TorusTopology())
        assert model.round_trip(0, 1) == pytest.approx(1e-6)

    def test_worst_case_rtt_7us(self):
        """'Worst-case round-trip communication in the torus requires
        7 usec.'"""
        model = TorusLatencyModel(TorusTopology())
        rtts = [model.round_trip(0, dst) for dst in range(1, 48)]
        assert max(rtts) == pytest.approx(7e-6)

    def test_jitter_adds_noise(self):
        model = TorusLatencyModel(TorusTopology())
        rng = random.Random(0)
        noisy = model.round_trip(0, 10, rng)
        clean = model.round_trip(0, 10)
        assert noisy != clean
        assert noisy == pytest.approx(clean, rel=0.2)

    def test_all_pairs_count(self):
        model = TorusLatencyModel(TorusTopology())
        rtts = model.all_pair_round_trips()
        assert len(rtts) == 48 * 47

    def test_unreachable_returns_none(self):
        torus = TorusTopology()
        torus.fail_node(1)
        model = TorusLatencyModel(torus)
        assert model.round_trip(0, 1) is None
