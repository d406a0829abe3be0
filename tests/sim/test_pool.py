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
        waiter = Pool().acquire(ran.append, "now")
        assert ran == ["now"]
        assert waiter is None

    def test_invalid_capacity(self):
        with pytest.raises(ValueError):
            Pool(capacity=0)

    def test_cancel_withdraws_a_queued_waiter(self):
        pool = Pool()
        ran = []
        pool.acquire(ran.append, "holder")
        first = pool.acquire(ran.append, "first")
        pool.acquire(ran.append, "second")
        pool.cancel(first)
        pool.release()
        assert ran == ["holder", "second"]
        with pytest.raises(ValueError):
            pool.cancel(first)

    def test_cancel_matches_the_waiter_not_an_equal_one(self):
        pool = Pool()
        ran = []
        pool.acquire(ran.append, "holder")
        first = pool.acquire(ran.append, "same")
        second = pool.acquire(ran.append, "same")
        pool.cancel(second)
        assert list(pool.queue) == [first]

    def test_waiters_handing_the_server_back_do_not_recurse(self):
        pool = Pool()
        handed_back = []

        def give_back(index):
            handed_back.append(index)
            pool.release()

        pool.acquire(lambda: None)
        for index in range(5000):
            pool.acquire(give_back, index)
        last = []
        pool.acquire(last.append, "kept")
        pool.release()
        assert handed_back == list(range(5000))
        assert last == ["kept"]
        assert pool.free == 0 and not pool.queue
