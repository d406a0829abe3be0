"""Tests for the shell's role slot on the Elastic Router and the LTL
failure-detection hook."""

from repro.fpga import Shell, ShellConfig
from repro.ltl import LtlConfig
from repro.net import DatacenterFabric, TopologyConfig, idle
from repro.sim import Environment


def make_pair(ltl_config=None):
    env = Environment()
    fabric = DatacenterFabric(env, TopologyConfig(background=idle()))
    config = ShellConfig(ltl=ltl_config or LtlConfig())
    a = Shell(env, 0, fabric, config=config)
    b = Shell(env, 1, fabric, config=config)
    a.connect_to(b)
    return env, a, b


class TestMultiRole:
    def test_single_role_keeps_four_ports(self):
        env, a, _b = make_pair()
        assert a.er.num_ports == 4

    def test_role_receive_gets_remote_messages(self):
        env, a, b = make_pair()
        got = []
        b.role_receive = lambda p, n: got.append((p, n))
        a.remote_send(1, b"to-role", 32)
        env.run(until=1e-3)
        assert got == [(b"to-role", 32)]


class TestRemoteFailureHook:
    def test_ltl_failure_surfaces_remote_host(self):
        env, a, b = make_pair(
            ltl_config=LtlConfig(max_consecutive_timeouts=3))
        failures = []
        a.on_remote_failure = lambda host: failures.append(
            (host, env.now))
        # The remote FPGA goes dark: its link drops, frames vanish.
        b.bridge.link_up = False
        env2_detach = b.fabric.detach(1)
        a.remote_send(1, b"anyone there?", 32)
        env.run(until=5e-3)
        assert failures and failures[0][0] == 1
        # Detection in well under a millisecond (50 us timeout x 3).
        assert failures[0][1] < 1e-3
        # The stale connection is dropped for reprovisioning.
        assert 1 not in a._send_conns
