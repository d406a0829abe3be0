"""Regressions for the kernel fast path: scheduled callbacks and the
events-processed counter."""

import pytest

from repro.sim import Environment


class TestCallLater:
    def test_runs_in_delay_order(self):
        env = Environment()
        seen = []
        env.call_later(2.0, seen.append, "late")
        env.call_later(1.0, seen.append, "early")
        env.run()
        assert seen == ["early", "late"]
        assert env.now == 2.0

    def test_same_instant_fifo_with_events(self):
        env = Environment()
        order = []

        def proc(env):
            yield env.timeout(1.0)
            order.append("timeout")

        env.call_later(1.0, order.append, "deferred")
        env.process(proc(env))
        env.run()
        assert order == ["deferred", "timeout"]

    def test_negative_delay_rejected(self):
        env = Environment()
        with pytest.raises(ValueError):
            env.call_later(-1e-9, lambda: None)

    def test_call_at_absolute_time(self):
        env = Environment(initial_time=5.0)
        seen = []
        env.call_at(7.5, seen.append, "x")
        env.run()
        assert seen == ["x"] and env.now == 7.5

    def test_call_at_past_rejected(self):
        env = Environment(initial_time=5.0)
        with pytest.raises(ValueError):
            env.call_at(4.9, lambda: None)

    def test_deferred_may_schedule_more_work(self):
        env = Environment()
        seen = []

        def chain(n):
            seen.append(n)
            if n < 3:
                env.call_later(1.0, chain, n + 1)

        env.call_later(1.0, chain, 0)
        env.run()
        assert seen == [0, 1, 2, 3] and env.now == 4.0


class TestEventsProcessedCounter:
    def test_counts_deferred_and_events_in_run(self):
        env = Environment()
        for _ in range(3):
            env.call_later(0.0, lambda: None)
        env.call_at(1.0, lambda: None)
        env.run()
        assert env.events_processed == 4

    def test_process_workload_counter_is_deterministic(self):
        def ticker(env, n):
            for _ in range(n):
                yield env.timeout(1e-6)

        counts = []
        for _ in range(2):
            env = Environment()
            env.process(ticker(env, 100))
            env.run()
            counts.append(env.events_processed)
        assert counts[0] == counts[1] > 100
