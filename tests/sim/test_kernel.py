"""Tests for the discrete-event kernel (Environment, run)."""

import pytest

from repro.sim import Environment, SimulationError


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
        env.timeout(2.5)
        env.run()
        assert env.now == 2.5

    def test_negative_timeout_rejected(self):
        env = Environment()
        with pytest.raises(ValueError):
            env.timeout(-1.0)

    def test_run_until_time_stops_exactly(self):
        env = Environment()
        env.timeout(10.0)
        env.run(until=4.0)
        assert env.now == 4.0

    def test_run_until_past_raises(self):
        env = Environment()
        env.timeout(1.0)
        env.run()
        with pytest.raises(ValueError):
            env.run(until=0.5)

    def test_run_until_takes_only_a_time(self):
        env = Environment()

        def proc(env):
            yield env.timeout(1.0)

        process = env.process(proc(env))
        with pytest.raises(TypeError):
            env.run(until=process)
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
    def test_process_return_value(self):
        env = Environment()

        def proc(env):
            yield env.timeout(0.5)
            return 42

        p = env.process(proc(env))
        env.run()
        assert p.value == 42
        assert not p.is_alive

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

    def test_process_waits_on_process(self):
        env = Environment()

        def child(env):
            yield env.timeout(2.0)
            return "child-done"

        def parent(env):
            result = yield env.process(child(env))
            return (env.now, result)

        p = env.process(parent(env))
        env.run()
        assert p.value == (2.0, "child-done")

    def test_exception_propagates_to_waiter(self):
        env = Environment()

        def failing(env):
            yield env.timeout(1.0)
            raise RuntimeError("boom")

        def waiter(env):
            try:
                yield env.process(failing(env))
            except RuntimeError as exc:
                return str(exc)

        p = env.process(waiter(env))
        env.run()
        assert p.value == "boom"

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
            yield 42

        env.process(bad(env))
        with pytest.raises(SimulationError):
            env.run()

    def test_process_non_generator_rejected(self):
        env = Environment()
        with pytest.raises(TypeError):
            env.process(lambda: None)

    def test_waiting_on_already_processed_event(self):
        env = Environment()
        results = []

        def early(env):
            yield env.timeout(1.0)
            return "early"

        child = env.process(early(env))

        def late(env):
            yield env.timeout(5.0)
            value = yield child  # long since completed
            results.append((env.now, value))

        env.process(late(env))
        env.run()
        assert results == [(5.0, "early")]
