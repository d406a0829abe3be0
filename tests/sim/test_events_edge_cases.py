"""Edge cases on Event and error handling."""

import pytest

from repro.sim import Environment, SimulationError


class TestEventLifecycle:
    def test_double_succeed_rejected(self):
        env = Environment()
        event = env.event()
        event.succeed(1)
        with pytest.raises(SimulationError):
            event.succeed(2)
        event._defused = True
        env.run()

    def test_fail_requires_exception(self):
        env = Environment()
        event = env.event()
        with pytest.raises(TypeError):
            event.fail("not an exception")

    def test_value_before_trigger_raises(self):
        env = Environment()
        event = env.event()
        with pytest.raises(SimulationError):
            _ = event.value
        with pytest.raises(SimulationError):
            _ = event.ok

    def test_event_value_carried(self):
        env = Environment()

        def proc(env):
            event = env.event()
            event.succeed({"k": 1})
            result = yield event
            return result

        p = env.process(proc(env))
        env.run()
        assert p.value == {"k": 1}

    def test_failed_event_waited_by_process(self):
        env = Environment()

        def proc(env):
            event = env.event()
            event.fail(RuntimeError("expected"))
            try:
                yield event
            except RuntimeError as exc:
                return f"caught {exc}"

        p = env.process(proc(env))
        env.run()
        assert p.value == "caught expected"

    def test_unwaited_failed_event_raises_at_step(self):
        env = Environment()
        event = env.event()
        event.fail(ValueError("nobody caught me"))
        with pytest.raises(ValueError):
            env.run()


class TestRunEdgeCases:
    def test_run_until_never_triggered_event_raises(self):
        env = Environment()
        env.timeout(1.0)
        orphan = env.event()
        with pytest.raises(SimulationError,
                           match="ended before the awaited"):
            env.run(until=orphan)

    def test_run_until_failed_event_reraises(self):
        env = Environment()

        def proc(env):
            yield env.timeout(1.0)
            raise KeyError("inside")

        p = env.process(proc(env))
        with pytest.raises(KeyError):
            env.run(until=p)

    def test_run_until_already_processed_event(self):
        env = Environment()

        def proc(env):
            yield env.timeout(1.0)
            return "done"

        p = env.process(proc(env))
        env.run()
        assert env.run(until=p) == "done"
