"""Topology partitioning for sharded simulation (repro.sim.shard).

Covers the partition invariants the window protocol's correctness rests
on: every host and TOR in exactly one shard, rack-locality preserved,
LTL connection ids that agree across the seam, and the computed
lookahead equal to the true minimum seam-path latency.
"""

import itertools

import pytest

from repro.net.addressing import host_index_to_coords
from repro.net.topology import TopologyConfig
from repro.sim.shard import (
    BoundaryPathModel,
    PingTask,
    build_worlds,
    compute_lookahead,
    plan_shards,
    validate_workload,
)


def _coords(config, host):
    return host_index_to_coords(
        host, config.hosts_per_tor, config.tors_per_pod)


class TestPlanShards:
    def test_every_host_in_exactly_one_shard(self):
        config = TopologyConfig()
        active = [0, 1, 25, 30, 48, 5000, 100_000, 100_001, 200_000]
        plan = plan_shards(config, active, 4)
        seen = [h for shard in plan.hosts for h in shard]
        assert sorted(seen) == sorted(active)          # covering
        assert len(seen) == len(set(seen))             # disjoint
        for shard, hosts in enumerate(plan.hosts):
            for host in hosts:
                assert plan.shard_of_host(host) == shard

    def test_every_tor_in_exactly_one_shard(self):
        config = TopologyConfig()
        active = list(range(0, 24 * 10))  # 10 full racks
        plan = plan_shards(config, active, 3)
        assert len(plan.tor_to_shard) == 10
        for host in active:
            coords = _coords(config, host)
            assert plan.shard_of_host(host) == \
                plan.tor_to_shard[(coords.pod, coords.tor)]

    def test_rack_locality_preserved(self):
        """Hosts under one TOR always share a shard — same-rack traffic
        never crosses a seam, which the lookahead bound relies on."""
        config = TopologyConfig()
        active = list(range(0, 24 * 6))
        plan = plan_shards(config, active, 4)
        for host in active:
            peer = (host + 1) if (host % 24) < 23 else host - 1
            assert plan.shard_of_host(host) == plan.shard_of_host(peer)

    def test_shard_count_clamped_to_tor_count(self):
        config = TopologyConfig()
        plan = plan_shards(config, [0, 1, 2, 30], 8)  # only 2 racks
        assert plan.num_shards == 2

    def test_rejects_bad_input(self):
        config = TopologyConfig()
        with pytest.raises(ValueError, match="at least one shard"):
            plan_shards(config, [0], 0)
        with pytest.raises(ValueError, match="no active hosts"):
            plan_shards(config, [], 2)
        with pytest.raises(ValueError, match="outside the datacenter"):
            plan_shards(config, [config.total_hosts], 2)

    def test_is_boundary(self):
        config = TopologyConfig()
        plan = plan_shards(config, [0, 1, 30], 2)
        assert not plan.is_boundary(0, 1)      # same rack
        assert plan.is_boundary(0, 30)         # rack 0 vs rack 1


class TestLookahead:
    def test_single_shard_has_no_bound(self):
        config = TopologyConfig()
        plan = plan_shards(config, [0, 30], 1)
        assert compute_lookahead(config, plan, seed=0) == float("inf")

    def test_equals_true_minimum_over_seam_pairs(self):
        """The closed-form bound must equal the brute-force minimum of
        the seam path model over every actual cross-shard host pair."""
        config = TopologyConfig()
        for seed, active, shards in (
                (0, [0, 30, 25, 5000, 100_000], 2),
                (7, [0, 30, 48, 72], 4),
                (3, [0, 960, 1920, 100_000, 200_000], 3)):
            plan = plan_shards(config, active, shards)
            model = BoundaryPathModel(config, seed)
            brute = min(
                model.min_delay(a, b)
                for a, b in itertools.permutations(active, 2)
                if plan.is_boundary(a, b))
            assert compute_lookahead(config, plan, seed) == \
                pytest.approx(brute, abs=1e-15)

    def test_split_pod_uses_same_pod_floor(self):
        config = TopologyConfig()
        lat = config.latency
        plan = plan_shards(config, [0, 30], 2)  # two racks, one pod
        expected = (2 * lat.host_tor_distance_m / 2.0e8
                    + 2 * lat.tor_l1_distance_m / 2.0e8
                    + 2 * lat.tor_latency + lat.l1_latency)
        assert compute_lookahead(config, plan, 0) == \
            pytest.approx(expected, rel=1e-12)

    def test_whole_pod_partition_crosses_l2(self):
        """Pods kept whole: every seam crosses L2, so the bound grows by
        the L2 traversal and both pods' fiber runs."""
        config = TopologyConfig()
        per_pod = config.hosts_per_pod
        plan = plan_shards(config, [0, per_pod, 2 * per_pod], 3)
        same_pod = compute_lookahead(
            config, plan_shards(config, [0, 30], 2), 0)
        bound = compute_lookahead(config, plan, 0)
        assert bound > same_pod + config.latency.l2_latency

    def test_lookahead_below_every_sampled_delay(self):
        """No sampled seam traversal may undercut the bound (the window
        protocol's safety condition)."""
        import random
        config = TopologyConfig()
        active = [0, 30, 5000, 100_000]
        plan = plan_shards(config, active, 2)
        bound = compute_lookahead(config, plan, seed=1)
        model = BoundaryPathModel(config, 1, rng=random.Random(42))
        for a, b in itertools.permutations(active, 2):
            if not plan.is_boundary(a, b):
                continue
            for size in (64, 256, 1500):
                assert model.delay(a, b, size) >= bound

    def test_same_tor_pair_rejected_by_path_model(self):
        config = TopologyConfig()
        model = BoundaryPathModel(config, 0)
        with pytest.raises(ValueError, match="share a TOR"):
            model.min_delay(0, 1)


class TestBoundarySeams:
    def _worlds(self, workload, num_shards=2, seed=0):
        config = TopologyConfig()
        active = sorted({t.src for t in workload}
                        | {t.dst for t in workload})
        plan = plan_shards(config, active, num_shards)
        return plan, build_worlds(plan, seed, workload)

    def test_connection_ids_agree_across_the_seam(self):
        """Each side's send connection, joined by ``connect_to`` across
        two worlds, must point at the id the peer's world installed for
        the matching receive half."""
        workload = [PingTask(src=0, dst=30, messages=1),
                    PingTask(src=25, dst=5000, messages=1)]
        plan, worlds = self._worlds(workload)
        for a, b in ((0, 30), (25, 5000)):
            wa = worlds[plan.shard_of_host(a)]
            wb = worlds[plan.shard_of_host(b)]
            ltl_a = wa.cloud.shell(a).ltl
            ltl_b = wb.cloud.shell(b).ltl
            send_a = ltl_a.send_table.lookup(
                wa.cloud.shell(a)._send_conns[b])
            recv_b = ltl_b.recv_table.lookup(send_a.remote_connection_id)
            assert recv_b.remote_host == a
            assert recv_b.remote_connection_id == send_a.connection_id

    def test_workload_validation_rejects_duplicate_sources(self):
        with pytest.raises(ValueError, match="only one PingTask"):
            validate_workload([PingTask(src=0, dst=30),
                               PingTask(src=0, dst=48)])
