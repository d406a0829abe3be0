"""A transmit port's launch mark is :attr:`Environment.events_processed`.

:class:`repro.net.links.Port` computes that count in place, without the
property call.  A port here checks its mark at every launch, and its
verdict at every provisional check, against the property.  The programs
run in bounded windows that end on instants where packets launch, and
enqueue, pause and resume between windows at the boundary instant: a
launch in a window's last instant is checked outside the run, where the
stop sentinel is gone and no longer discounted.
"""

import random

from repro.net.links import Port
from repro.net.packet import TrafficClass
from repro.sim import Environment

from .test_links_switch import make_packet

#: Instants the programs act and stop on: a few packet times apart.
GRID = [k * 20e-9 for k in range(10)]


class CheckedPort(Port):
    def __init__(self, env, seen):
        super().__init__(env, "p", rate_bps=40e9, deliver=lambda p: None)
        self.seen = seen

    def _launch_or_kick(self, tc, packet, size):
        super()._launch_or_kick(tc, packet, size)
        if self._launch is not None:
            assert self._launch[1] == self.env.events_processed
            self.seen["launches"] += 1
            self.launched_in_run = self.env._stop_token is not None

    def _provisional(self):
        when, mark = self._launch[:2]
        env = self.env
        expected = env.now == when and env.events_processed == mark
        assert super()._provisional() == expected
        if expected and self.launched_in_run and env._stop_token is None:
            self.seen["undoable outside a run"] += 1
        return expected


def act(rng, port):
    roll = rng.random()
    tc = rng.choice(TrafficClass.ALL)
    if roll < 0.7:
        port.enqueue(make_packet(tc=tc))
    elif roll < 0.85:
        port.pause(tc)
    else:
        port.resume(tc)


def run_program(seed, seen):
    rng = random.Random(seed)
    env = Environment()
    port = CheckedPort(env, seen)
    for _ in range(rng.randint(1, 16)):
        env.call_at(rng.choice(GRID), act, rng, port)
    for stop in sorted(rng.sample(GRID, rng.randint(1, 5))):
        env.run(until=stop)
        for _ in range(rng.randint(0, 2)):
            act(rng, port)
    env.run()


def test_launch_mark_is_events_processed():
    seen = {"launches": 0, "undoable outside a run": 0}
    for seed in range(300):
        run_program(seed, seen)
    # Both readings were compared where they could part.
    assert seen["launches"] > 100
    assert seen["undoable outside a run"] > 0
