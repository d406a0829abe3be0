"""Batched jitter sampling must be RNG-identical to per-packet draws."""

import random

import pytest

from repro.net.latency import BackgroundTrafficModel, JitterStream, TierJitter


class TestSampleBatch:
    def test_matches_sequential_draws_and_rng_state(self):
        jitter = TierJitter(exp_mean=0.03e-6, burst_prob=0.2,
                            burst_min=1e-7, burst_max=5e-7)
        batched_rng = random.Random(42)
        sequential_rng = random.Random(42)
        batch = jitter.sample_batch(batched_rng, 200)
        sequential = [jitter.sample(sequential_rng) for _ in range(200)]
        assert batch == sequential
        assert batched_rng.getstate() == sequential_rng.getstate()

    def test_exp_only_tier_matches(self):
        jitter = TierJitter(exp_mean=0.004e-6)
        a, b = random.Random(9), random.Random(9)
        assert jitter.sample_batch(a, 64) == \
            [jitter.sample(b) for _ in range(64)]

    def test_zero_jitter_consumes_no_rng(self):
        jitter = TierJitter()
        rng = random.Random(1)
        state = rng.getstate()
        assert jitter.sample_batch(rng, 50) == [0.0] * 50
        assert rng.getstate() == state


class TestJitterStream:
    def test_stream_matches_model_sample(self):
        model = BackgroundTrafficModel()
        stream_rng, direct_rng = random.Random(7), random.Random(7)
        stream = model.batched("l2", stream_rng, batch=16)
        got = [stream.take() for _ in range(50)]
        want = [model.l2.sample(direct_rng) for _ in range(50)]
        assert got == want

    def test_batch_size_one(self):
        model = BackgroundTrafficModel()
        a, b = random.Random(3), random.Random(3)
        stream = model.batched("l1", a, batch=1)
        assert [stream.take() for _ in range(10)] == \
            [model.l1.sample(b) for _ in range(10)]

    def test_bad_batch_rejected(self):
        with pytest.raises(ValueError):
            JitterStream(TierJitter(), random.Random(0), batch=0)

    def test_unknown_tier_rejected(self):
        model = BackgroundTrafficModel()
        with pytest.raises(ValueError):
            model.batched("spine", random.Random(0))
