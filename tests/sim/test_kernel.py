"""Tests for the discrete-event kernel (Environment, run, processes)."""

import pytest

from repro.sim import Environment


class TestEnvironmentBasics:
    def test_initial_time_defaults_to_zero(self):
        assert Environment().now == 0.0

    def test_initial_time_configurable(self):
        assert Environment(initial_time=5.0).now == 5.0

    def test_new_environment_is_empty(self):
        env = Environment()
        assert len(env) == 0
        env.run()
        assert env.now == 0.0 and env.events_processed == 0

    def test_timeout_advances_time(self):
        env = Environment()

        def proc(env):
            yield env.timeout(2.5)

        env.process(proc(env))
        env.run()
        assert env.now == 2.5

    def test_negative_timeout_rejected(self):
        env = Environment()
        with pytest.raises(ValueError):
            env.timeout(-1.0)

    def test_run_until_time_stops_exactly(self):
        env = Environment()
        env.call_later(10.0, lambda: None)
        env.run(until=4.0)
        assert env.now == 4.0 and len(env) == 1

    def test_run_until_past_raises(self):
        env = Environment()
        env.call_later(1.0, lambda: None)
        env.run()
        with pytest.raises(ValueError):
            env.run(until=0.5)

    def test_run_until_takes_only_a_time(self):
        env = Environment()

        def proc(env):
            yield env.timeout(1.0)

        generator = proc(env)
        env.process(generator)
        with pytest.raises(TypeError):
            env.run(until=generator)
        assert env.now == 0.0 and len(env) == 1

    def test_events_at_same_time_fifo(self):
        env = Environment()
        order = []

        def make(tag):
            def proc(env):
                yield env.timeout(1.0)
                order.append(tag)
            return proc

        for tag in ("a", "b", "c"):
            env.process(make(tag)(env))
        env.run()
        assert order == ["a", "b", "c"]


class TestSeqAccounting:
    def test_events_processed_is_live_inside_a_run(self):
        env = Environment()
        seen = []
        for delay in (1.0, 1.0, 2.0):
            env.call_later(delay, lambda: seen.append(env.events_processed))
        env.run(until=1.5)
        assert seen == [1, 2] and env.events_processed == 2
        env.run()
        assert seen == [1, 2, 3] and env.events_processed == 3

    def test_call_at_before_takes_the_place_of_an_earlier_draw(self):
        env = Environment()
        order = []
        first = env._seq
        env.call_at(1.0, order.append, "a")
        env.call_at(1.0, order.append, "b")
        # Scheduled last, dispatched as if drawn just before "b".
        env._call_at_before(1.0, first + 1, order.append, "late")
        assert len(env) == 3
        env.run()
        assert order == ["a", "late", "b"]
        assert env.events_processed == 3


class TestProcesses:
    def test_sequential_timeouts_accumulate(self):
        env = Environment()
        times = []

        def proc(env):
            for _ in range(3):
                yield env.timeout(1.0)
                times.append(env.now)

        env.process(proc(env))
        env.run()
        assert times == [1.0, 2.0, 3.0]

    def test_a_process_costs_its_start_and_one_entry_per_delay(self):
        env = Environment()

        def proc(env):
            yield env.timeout(1.0)
            yield env.timeout(0)
            return "ignored"

        env.process(proc(env))
        env.run()
        # Its return draws no entry.
        assert env.events_processed == 3 and len(env) == 0

    def test_unhandled_process_exception_surfaces(self):
        env = Environment()

        def failing(env):
            yield env.timeout(1.0)
            raise ValueError("unhandled")

        env.process(failing(env))
        with pytest.raises(ValueError, match="unhandled"):
            env.run()

    def test_yield_non_event_raises(self):
        env = Environment()

        def bad(env):
            yield object()

        env.process(bad(env))
        with pytest.raises(TypeError, match="not a delay"):
            env.run()

    @pytest.mark.parametrize("value", [None, "1.0", [1.0], object()])
    def test_yielding_anything_but_a_delay_raises_at_once(self, value):
        env = Environment()
        seen = []

        def bad(env):
            yield env.timeout(1.0)
            yield value

        env.process(bad(env))
        env.run(until=0.5)
        env.call_at(1.0, seen.append, "after")
        with pytest.raises(TypeError, match="not a delay"):
            env.run()
        # Raised in the step that yielded it: the entry due after it at
        # the same instant has not run, and nothing was scheduled.
        assert env.now == 1.0 and seen == [] and len(env) == 1

    def test_exception_leaves_run_with_no_stale_sentinel(self):
        env = Environment()
        seen = []

        def failing(env):
            yield env.timeout(1.0)
            raise RuntimeError("boom")

        env.process(failing(env))
        env.run(until=0.5)
        env.call_at(1.0, seen.append, "after")
        with pytest.raises(RuntimeError, match="boom"):
            env.run(until=5.0)
        # The exception left in the failing step: the later entry at 1.0
        # is the only one queued (no sentinel, no termination entry),
        # and the count holds the start and the one step.
        assert env.now == 1.0 and seen == [] and len(env) == 1
        assert env.events_processed == 2
        env.run(until=5.0)
        assert seen == ["after"] and env.now == 5.0 and len(env) == 0
        assert env.events_processed == 3

    def test_process_non_generator_rejected(self):
        env = Environment()
        with pytest.raises(TypeError):
            env.process(lambda: None)
