"""Sharded simulation vs the one-shard reference.

The acceptance gate for ``repro.sim.shard``: a four-shard run of a
Fig. 10-style RTT workload must reproduce the merged percentiles of the
one-shard run, which uses the real fabric end to end, within tolerance
(jitter is drawn from different streams across the seam, so agreement
is statistical, not bitwise), and per-shard results must be bit-stable
across runs.
"""

import pytest

from repro.sim.shard import PingTask, ShardDriver

# Fig. 10-style sample: one L0 pair (intra-shard by construction), two
# same-pod cross-TOR pairs, two cross-pod pairs — all tiers exercised,
# with the L1/L2 paths crossing shard seams.
WORKLOAD = [
    PingTask(src=0, dst=1, messages=40),            # L0, same rack
    PingTask(src=24, dst=60, messages=40),          # L1, cross rack
    PingTask(src=48, dst=90, messages=40),          # L1, cross rack
    PingTask(src=2, dst=5_000, messages=40),        # L2, cross pod
    PingTask(src=25, dst=100_000, messages=40),     # L2, cross pod
]
SEED = 11


@pytest.fixture(scope="module")
def sharded():
    return ShardDriver(seed=SEED, num_shards=4).run(WORKLOAD)


@pytest.fixture(scope="module")
def reference():
    return ShardDriver(seed=SEED, num_shards=1).run(WORKLOAD).tiers


class TestShardedVsReference:
    def test_all_samples_accounted_for(self, sharded, reference):
        for tier, recorder in reference.items():
            assert sharded.tiers[tier].count == recorder.count
        assert sharded.total_samples == \
            sum(r.count for r in reference.values())

    def test_merged_percentiles_match_reference(self, sharded, reference):
        """P50/P99 per tier within documented tolerance (5% / 10%)."""
        for tier, ref in reference.items():
            got = sharded.tiers[tier]
            assert got.p50 == pytest.approx(ref.p50, rel=0.05), tier
            assert got.p99 == pytest.approx(ref.p99, rel=0.10), tier
            assert got.mean == pytest.approx(ref.mean, rel=0.05), tier

    def test_tier_ordering_preserved(self, sharded):
        tiers = sharded.tiers
        assert tiers["L0"].mean < tiers["L1"].mean < tiers["L2"].mean

    def test_intra_shard_tier_is_bit_exact(self, sharded, reference):
        """The L0 pair never crosses a seam: its path runs entirely on
        the real fabric inside one shard, with identical named RNG
        streams — so it matches the reference exactly."""
        assert sorted(x for x in sharded.tiers["L0"].samples) == \
            sorted(x for x in reference["L0"].samples)

    def test_boundary_conservation(self, sharded):
        sent = sum(s["boundary_sent"] for s in sharded.per_shard)
        received = sum(s["boundary_received"] for s in sharded.per_shard)
        assert sent == received == sharded.boundary_records
        assert sent > 0  # the workload does cross the seam

    def test_window_protocol_ran(self, sharded):
        assert sharded.windows > 1
        assert sharded.lookahead > 0
        assert sharded.plan.num_shards == 4


class TestDeterminism:
    def test_per_shard_digests_stable_across_runs(self, sharded):
        again = ShardDriver(seed=SEED, num_shards=4).run(WORKLOAD)
        assert [s["digest"] for s in again.per_shard] == \
            [s["digest"] for s in sharded.per_shard]
        for tier, recorder in again.tiers.items():
            assert recorder.samples == sharded.tiers[tier].samples

    def test_different_seed_changes_digests(self, sharded):
        other = ShardDriver(seed=SEED + 1, num_shards=4).run(WORKLOAD)
        assert [s["digest"] for s in other.per_shard] != \
            [s["digest"] for s in sharded.per_shard]


class TestDegenerateCases:
    def test_single_shard_runs_in_process(self):
        result = ShardDriver(seed=1, num_shards=1).run(
            [PingTask(src=0, dst=30, messages=10)])
        assert result.plan.num_shards == 1
        assert result.lookahead == float("inf")
        assert result.tiers["L1"].count == 10
        assert result.boundary_records == 0

    def test_empty_workload_rejected(self):
        with pytest.raises(ValueError, match="empty workload"):
            ShardDriver(num_shards=2).run([])
