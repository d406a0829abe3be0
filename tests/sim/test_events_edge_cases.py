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

        def failing(env):
            raise RuntimeError("expected")
            yield  # pragma: no cover - makes this a generator

        def proc(env):
            try:
                yield env.process(failing(env))
            except RuntimeError as exc:
                return f"caught {exc}"

        p = env.process(proc(env))
        env.run()
        assert p.value == "caught expected"

    def test_unwaited_failed_event_raises_at_step(self):
        env = Environment()

        def failing(env):
            raise ValueError("nobody caught me")
            yield  # pragma: no cover - makes this a generator

        env.process(failing(env))
        with pytest.raises(ValueError):
            env.run()
