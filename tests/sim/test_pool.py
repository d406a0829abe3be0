"""Tests for the callback-driven FIFO Pool."""

import pytest

from repro.sim import Environment, Pool


def hold(env, pool, seconds, log, tag):
    """Waiter step: note the grant, keep the server ``seconds``."""
    log.append((tag, env.now))
    env.call_later(seconds, pool.release)


class TestPool:
    def test_capacity_enforced(self):
        env = Environment()
        pool = Pool(capacity=2)
        log = []
        for tag in range(5):
            pool.acquire(hold, env, pool, 1.0, log, tag)
        env.run()
        assert log == [(0, 0.0), (1, 0.0), (2, 1.0), (3, 1.0), (4, 2.0)]
        assert pool.free == 2

    def test_fifo_grant_order(self):
        env = Environment()
        pool = Pool()
        log = []
        for tag in "abc":
            pool.acquire(hold, env, pool, 1.0, log, tag)
        env.run()
        assert [tag for tag, _ in log] == ["a", "b", "c"]

    def test_acquire_runs_at_once_when_free(self):
        ran = []
        Pool().acquire(ran.append, "now")
        assert ran == ["now"]

    def test_invalid_capacity(self):
        with pytest.raises(ValueError):
            Pool(capacity=0)
