"""ServiceManager replacement-retry backoff.

When the pool is exhausted, a Service Manager's lost components go
pending and a single retry keeps asking the RM with exponential backoff.
These tests pin the contract on real failed acquires (``AllocationError``
from an exhausted pool, ``RpcTimeout`` from a partitioned channel): the
interval doubles after each failed retry up to ``retry_backoff_max``, a
successful replacement resets it, only one retry is armed at a time,
and the retry stops when drained and re-arms on the next loss.
"""

import pytest

from repro.core import ConfigurableCloud
from repro.fpga import Image
from repro.haas import Constraints, RpcConfig, ServiceManager
from repro.net import TopologyConfig, idle


def make_cloud(*indices):
    cloud = ConfigurableCloud(
        topology=TopologyConfig(background=idle()), seed=1)
    for i in indices:
        cloud.add_server(i)
    return cloud


def make_sm(cloud, backoff=0.5, backoff_max=4.0, rpc_config=None):
    sm = ServiceManager(cloud.env, "svc", cloud.resource_manager,
                        Image("svc-v1", "svc"), Constraints(count=1),
                        retry_backoff=backoff,
                        retry_backoff_max=backoff_max,
                        rpc_config=rpc_config)
    return sm


def record_acquires(sm):
    """Log the time of every acquire ``sm`` sends from now on."""
    attempts = []
    call = sm.channel.call

    def recording(method, *args, **kwargs):
        if method == "acquire":
            attempts.append(sm.env.now)
        call(method, *args, **kwargs)

    sm.channel.call = recording
    return attempts


def fail_all(cloud, hosts):
    """Hard-fail ``hosts``: each is quarantined for the RM's default 60 s,
    so no replacement can land on it during these tests."""
    for host in hosts:
        cloud.resource_manager.manager(host).mark_failed()


class TestBackoffSchedule:
    def test_interval_doubles_and_caps_at_max(self):
        cloud = make_cloud()  # an empty pool: every acquire fails
        sm = make_sm(cloud, backoff=0.5, backoff_max=4.0)
        attempts = record_acquires(sm)
        sm.grow(1)
        cloud.run(until=20.0)
        assert attempts[0] == 0.0  # the grow itself
        retries = attempts[1:]
        gaps = [b - a for a, b in zip(retries, retries[1:])]
        # 0.5 -> 1 -> 2 -> 4, then pinned at retry_backoff_max.
        assert retries[0] == pytest.approx(0.5)
        assert gaps[:3] == pytest.approx([1.0, 2.0, 4.0])
        assert all(g == pytest.approx(4.0) for g in gaps[3:])
        assert len(gaps) >= 5
        assert sm.pending_replacements == 1

    def test_timed_out_acquires_back_off_too(self):
        cloud = make_cloud(0)
        # One attempt per call: each acquire times out after 0.25 s.
        sm = make_sm(cloud, backoff=0.5, backoff_max=4.0,
                     rpc_config=RpcConfig(max_retries=0))
        sm.channel.partition_for(60.0)  # the RM never hears the SM
        attempts = record_acquires(sm)
        sm.grow(1)
        cloud.run(until=20.0)
        gaps = [b - a for a, b in zip(attempts, attempts[1:])]
        # call_timeout, then a wait of 0.5, 1, 2, 4, 4 s.
        assert gaps[:5] == pytest.approx([0.75, 1.25, 2.25, 4.25, 4.25])
        assert sm.channel.stats.timeouts == len(attempts)
        assert sm.pending_replacements == 1

    def test_success_resets_backoff(self):
        cloud = make_cloud(0, 1, 2)
        rm = cloud.resource_manager
        sm = make_sm(cloud, backoff=0.5, backoff_max=4.0)
        sm.grow(2)
        other = rm.acquire("other", Constraints(count=1))
        cloud.run(until=0.0)
        attempts = record_acquires(sm)
        # Lose both components with no spare: two immediate acquires
        # fail, then retries fail twice (backoff reaches 2.0) until the
        # release frees one host in time for the third.
        fail_all(cloud, sm.hosts)
        cloud.env.call_later(3.0, rm.release, other)
        cloud.run(until=10.0)
        assert attempts[:2] == [0.0, 0.0]
        retries = attempts[2:]
        assert retries[0] == pytest.approx(0.5)   # initial backoff
        assert retries[1] == pytest.approx(1.5)   # +1.0 (doubled)
        assert retries[2] == pytest.approx(3.5)   # +2.0 (doubled)
        # The success at 3.5 drains one pending replacement and retries
        # the remaining one in the same instant...
        assert retries[3] == pytest.approx(3.5)
        # ...which failed, so the next wait is the *reset* base backoff
        # doubled once (0.5 -> 1.0).  Without the reset the retry would
        # come a full capped 4.0 s later, at 7.5.
        assert retries[4] == pytest.approx(4.5)
        assert sm.stats.replacements == 1
        assert sm.pending_replacements == 1

    def test_loop_drains_and_rearms(self):
        cloud = make_cloud(0, 1)
        rm = cloud.resource_manager
        sm = make_sm(cloud, backoff=0.5)
        other = rm.acquire("other", Constraints(count=1))
        sm.grow(1)
        cloud.run(until=0.0)
        attempts = record_acquires(sm)
        fail_all(cloud, sm.hosts)
        cloud.run(until=0.0)
        assert sm.pending_replacements == 1
        assert sm._retrying
        cloud.env.call_later(0.2, rm.release, other)
        cloud.run(until=1.0)
        # Drained: the retry at 0.5 succeeded and nothing is armed.
        assert sm.pending_replacements == 0
        assert not sm._retrying
        assert attempts == [0.0, pytest.approx(0.5)]
        # A later loss re-arms a fresh retry at the base backoff.
        fail_all(cloud, sm.hosts)
        cloud.run(until=1.0)
        assert sm._retrying
        cloud.run(until=1.6)
        assert attempts[2:] == [1.0, pytest.approx(1.5)]

    def test_ensure_is_idempotent_while_active(self):
        """Arming a retry is idempotent while one is armed or in flight:
        only one retry at a time."""
        cloud = make_cloud(0, 1, 2)
        sm = make_sm(cloud, backoff=0.5)
        sm.grow(3)
        cloud.run(until=0.0)
        attempts = record_acquires(sm)
        fail_all(cloud, sm.hosts)
        cloud.run(until=0.6)
        assert sm.pending_replacements == 3
        # Three immediate acquires, then one retry — not three.
        assert attempts == [0.0, 0.0, 0.0, pytest.approx(0.5)]

    def test_delayed_channel_backs_off_and_resets(self):
        """Every call is a message, so backoff holds on a channel with
        delay too: each gap is a wait plus the failure's response leg
        and the retry's request leg (1 ms each)."""
        cloud = make_cloud(0, 1)
        rm = cloud.resource_manager
        sm = make_sm(cloud, backoff=0.5, backoff_max=4.0,
                     rpc_config=RpcConfig(delay=1e-3))
        sm.grow(1)
        cloud.run(until=1.0)
        other = rm.acquire("other", Constraints(count=1))
        attempts = record_acquires(sm)
        fail_all(cloud, sm.hosts)
        cloud.run(until=17.0)
        gaps = [b - a for a, b in zip(attempts, attempts[1:])]
        assert gaps[:5] == pytest.approx([0.502, 1.002, 2.002, 4.002,
                                          4.002])
        # Free a host: the next retry (at ~20.5 s) succeeds and resets
        # the interval, so the next loss is retried 0.5 s after its
        # failed acquire again.
        rm.release(other)
        cloud.run(until=21.0)
        assert sm.stats.replacements == 1
        del attempts[:]
        fail_all(cloud, sm.hosts)
        cloud.run(until=24.0)
        gaps = [b - a for a, b in zip(attempts, attempts[1:])]
        assert gaps[:2] == pytest.approx([0.502, 1.002])


class TestBackoffEndToEnd:
    def test_replacement_after_pool_frees_up(self):
        """Pool exhausted at loss time; a later release lets the retry
        replace the component and drain itself."""
        cloud = make_cloud(0, 1)
        rm = cloud.resource_manager
        other = rm.acquire("other", Constraints(count=1))
        sm = make_sm(cloud, backoff=0.5, backoff_max=4.0)
        sm.grow(1)
        cloud.run(until=cloud.env.now)
        assert rm.free_hosts() == []

        victim = sm.hosts[0]
        rm.manager(victim).mark_failed()
        cloud.run(until=cloud.env.now)
        assert sm.pending_replacements == 1
        assert sm.hosts == []
        assert sm._retrying

        def free_later(env):
            yield env.timeout(2.0)
            rm.release(other)

        cloud.env.process(free_later(cloud.env))
        cloud.run(until=10.0)
        assert sm.pending_replacements == 0
        assert not sm._retrying
        assert sm.stats.replacements == 1
        assert sm.hosts and sm.hosts[0] != victim
