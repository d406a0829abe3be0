"""Tests for the process-era `Resource` kept as the queue oracle.

:mod:`tests.ranking.reference_queues` runs the reference query paths on
it, so the differential test is only as good as its grants.
"""

import pytest

from repro.sim import Environment
from tests.ranking.reference_queues import Resource
from tests.sim.reference_events import process


class TestResource:
    def test_capacity_enforced(self):
        env = Environment()
        resource = Resource(env, capacity=2)
        active = []
        peak = []

        def user(env):
            with resource.request() as req:
                yield req
                active.append(1)
                peak.append(len(active))
                yield env.timeout(1.0)
                active.pop()

        for _ in range(5):
            process(env, user(env))
        env.run()
        assert max(peak) == 2

    def test_fifo_grant_order(self):
        env = Environment()
        resource = Resource(env, capacity=1)
        order = []

        def user(env, tag):
            with resource.request() as req:
                yield req
                order.append(tag)
                yield env.timeout(1.0)

        for tag in "abc":
            process(env, user(env, tag))
        env.run()
        assert order == ["a", "b", "c"]

    def test_release_idempotent(self):
        env = Environment()
        resource = Resource(env, capacity=1)

        def user(env):
            req = resource.request()
            yield req
            req.release()
            req.release()  # second release is a no-op

        process(env, user(env))
        env.run()
        assert resource.count == 0

    def test_invalid_capacity(self):
        with pytest.raises(ValueError):
            Resource(Environment(), capacity=0)

    def test_count_tracks_users(self):
        env = Environment()
        resource = Resource(env, capacity=3)

        def holder(env):
            req = resource.request()
            yield req
            yield env.timeout(10.0)

        process(env, holder(env))
        process(env, holder(env))
        env.run(until=1.0)
        assert resource.count == 2
