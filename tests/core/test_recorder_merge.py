"""LatencyRecorder.merge: concatenation keeps every statistic exact."""

import random

import pytest

from repro.core.metrics import LatencyRecorder
from repro.sim.randomness import percentile


def _samples(seed, n):
    rng = random.Random(seed)
    return [rng.expovariate(1.0) for _ in range(n)]


def test_exact_recorder_merge_is_exact():
    a, b = LatencyRecorder("a"), LatencyRecorder("b")
    a_samples = _samples(10, 500)
    b_samples = _samples(11, 500)
    a.extend(a_samples)
    b.extend(b_samples)
    a.merge(b)
    combined = sorted(a_samples + b_samples)
    assert a.count == 1000
    assert a.mean == pytest.approx(sum(combined) / 1000)
    assert a.max == max(combined)
    assert a.p99 == pytest.approx(percentile(combined, 99.0))


def test_recorder_merge_empty_other_is_noop():
    a = LatencyRecorder()
    a.extend([1.0, 2.0])
    a.merge(LatencyRecorder())
    assert a.count == 2
