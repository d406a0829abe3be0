"""The analytic cross-TOR path vs the reference run.

The acceptance gate for ``repro.experiments.scale``: a Fig. 10-style RTT
workload whose cross-TOR packets take the analytic path must reproduce
the per-tier percentiles of the reference run, which uses the real
fabric end to end, within tolerance (the analytic path draws jitter
from its own stream, so agreement is statistical, not bitwise), and
its samples must be bit-stable across runs.
"""

import pytest

from repro.experiments.scale import PingTask, run_pings

# Fig. 10-style sample: one L0 pair alone in its rack, two same-pod
# cross-TOR pairs, two cross-pod pairs — all tiers exercised, with the
# L1/L2 paths on the analytic path.
WORKLOAD = [
    PingTask(src=0, dst=1, messages=40),            # L0, same rack
    PingTask(src=24, dst=60, messages=40),          # L1, cross rack
    PingTask(src=48, dst=90, messages=40),          # L1, cross rack
    PingTask(src=26, dst=5_000, messages=40),       # L2, cross pod
    PingTask(src=25, dst=100_000, messages=40),     # L2, cross pod
]
SEED = 11


@pytest.fixture(scope="module")
def analytic():
    return run_pings(WORKLOAD, SEED)


@pytest.fixture(scope="module")
def reference():
    return run_pings(WORKLOAD, SEED, analytic=False).tiers


class TestShardedVsReference:
    def test_all_samples_accounted_for(self, analytic, reference):
        for tier, recorder in reference.items():
            assert analytic.tiers[tier].count == recorder.count
        assert analytic.total_samples == \
            sum(r.count for r in reference.values())

    def test_merged_percentiles_match_reference(self, analytic, reference):
        """P50/P99 per tier within documented tolerance (5% / 10%)."""
        for tier, ref in reference.items():
            got = analytic.tiers[tier]
            assert got.p50 == pytest.approx(ref.p50, rel=0.05), tier
            assert got.p99 == pytest.approx(ref.p99, rel=0.10), tier
            assert got.mean == pytest.approx(ref.mean, rel=0.05), tier

    def test_tier_ordering_preserved(self, analytic):
        tiers = analytic.tiers
        assert tiers["L0"].mean < tiers["L1"].mean < tiers["L2"].mean

    def test_rack_local_tier_is_bit_exact(self, analytic, reference):
        """The L0 pair's rack holds no other active host, so its TOR
        carries the same packets in both runs, with identical named RNG
        streams — so it matches the reference exactly."""
        assert analytic.tiers["L0"].samples == reference["L0"].samples

    def test_boundary_conservation(self, analytic):
        """Each cross-TOR ping and its ACK take the analytic path once:
        nothing is lost or retransmitted."""
        cross_tor = [t for t in WORKLOAD if t.src // 24 != t.dst // 24]
        assert analytic.analytic_packets == \
            2 * sum(t.messages for t in cross_tor)


class TestDeterminism:
    def test_digest_stable_across_runs(self, analytic):
        again = run_pings(WORKLOAD, SEED)
        assert again.digest == analytic.digest
        for tier, recorder in again.tiers.items():
            assert recorder.samples == analytic.tiers[tier].samples

    def test_different_seed_changes_digests(self, analytic):
        assert run_pings(WORKLOAD, SEED + 1).digest != analytic.digest


class TestDegenerateCases:
    def test_empty_workload_rejected(self):
        with pytest.raises(ValueError, match="empty workload"):
            run_pings([])
