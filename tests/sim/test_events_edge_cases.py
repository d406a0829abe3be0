"""Edge cases on error handling."""

import pytest

from repro.sim import Environment


class TestEventLifecycle:
    def test_unwaited_failed_event_raises_at_step(self):
        env = Environment()

        def failing(env):
            raise ValueError("nobody caught me")
            yield  # pragma: no cover - makes this a generator

        env.process(failing(env))
        with pytest.raises(ValueError):
            env.run()
