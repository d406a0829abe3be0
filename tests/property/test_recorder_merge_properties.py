"""Property test: merging many small shard recorders vs one pooled recorder.

The shard driver folds per-shard, per-tier ``LatencyRecorder`` objects
into one report.  Small shards routinely produce empty recorders, and
the merged statistics must equal one pooled recorder's for arbitrary
sample values and arbitrary shard splits — hypothesis hunts for the
splits that break it.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.metrics import LatencyRecorder

# Shardings of a sample list: a list of small chunk sizes (0 = an empty
# shard recorder).
chunks = st.lists(st.integers(min_value=0, max_value=9),
                  min_size=1, max_size=12)
samples = st.lists(
    st.floats(min_value=0.0, max_value=1e6,
              allow_nan=False, allow_infinity=False),
    min_size=0, max_size=60)


def _shard(values, sizes):
    """Split ``values`` into len(sizes) chunks (last chunk takes the rest)."""
    out, i = [], 0
    for k in sizes[:-1]:
        out.append(values[i:i + k])
        i += k
    out.append(values[i:])
    return out


@given(values=samples, sizes=chunks)
@settings(max_examples=80, deadline=None)
def test_recorder_merge_matches_pooled_exact_mode(values, sizes):
    """Merge is lossless: identical to one pooled recorder."""
    pooled = LatencyRecorder("pooled")
    pooled.extend(values)
    merged = LatencyRecorder("merged")
    for chunk in _shard(values, sizes):
        shard = LatencyRecorder("shard")
        shard.extend(chunk)
        merged.merge(shard)
    assert merged.count == pooled.count
    if values:
        # Sum order differs (per-shard partial sums), so mean agrees
        # only to float associativity.
        assert merged.mean == pytest.approx(pooled.mean, rel=1e-12)
        assert merged.max == pooled.max
        for q in (50.0, 95.0, 99.0, 99.9):
            assert merged.percentile(q) == pooled.percentile(q)
