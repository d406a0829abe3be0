"""SEU role-hang integration: a wedged role drops work until scrubbed."""

import random

from repro.fpga import SeuScrubber, Shell
from repro.net import DatacenterFabric, TopologyConfig, idle
from repro.sim import Environment


def make_pair_with_seu():
    env = Environment()
    fabric = DatacenterFabric(env, TopologyConfig(background=idle()))
    a = Shell(env, 0, fabric)
    b = Shell(env, 1, fabric)
    b.scrubber = SeuScrubber(env, rng=random.Random(1))
    a.connect_to(b)
    return env, a, b


class TestRoleHang:
    def test_hung_role_drops_messages(self):
        env, a, b = make_pair_with_seu()
        got = []
        b.role_receive = lambda p, n: got.append(p)
        b.scrubber.role_hung = True  # inject the wedge directly
        a.remote_send(1, b"lost-while-hung", 32)
        env.run(until=1e-3)
        assert got == []

    def test_recovered_role_serves_again(self):
        env, a, b = make_pair_with_seu()
        got = []
        b.role_receive = lambda p, n: got.append(p)
        b.scrubber.role_hung = True
        a.remote_send(1, b"during-hang", 32)
        env.run(until=1e-3)
        b.scrubber.role_hung = False  # the scrub pass fixed it
        a.remote_send(1, b"after-recovery", 32)
        env.run(until=env.now + 1e-3)
        assert got == [b"after-recovery"]

    def test_scrubber_recovers_hang_within_period(self):
        """End to end at accelerated SEU rates: a hang happens and is
        recovered automatically by the ~30 s scrub pass."""
        env, a, b = make_pair_with_seu()
        # Accelerate: flips every ~5 s, every flip hangs the role.
        b.scrubber.mean_seconds_between_flips = 5.0
        b.scrubber.role_hang_probability = 1.0
        env.run(until=300.0)
        assert b.scrubber.stats.role_hangs > 0
        assert b.scrubber.stats.recoveries >= \
            b.scrubber.stats.role_hangs - 1  # last one may be pending

    def test_shell_without_seu_never_drops(self):
        env = Environment()
        fabric = DatacenterFabric(env, TopologyConfig(background=idle()))
        a = Shell(env, 0, fabric)
        b = Shell(env, 1, fabric)  # no scrubber installed
        a.connect_to(b)
        got = []
        b.role_receive = lambda p, n: got.append(p)
        a.remote_send(1, b"always", 32)
        env.run(until=1e-3)
        assert got == [b"always"]
