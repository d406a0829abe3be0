"""Discrete-event simulation kernel underlying every simulated subsystem.

Quick example::

    from repro.sim import Environment

    env = Environment()
    pongs = []

    def pinger(env):
        yield env.timeout(1.0)
        pongs.append(env.now)

    env.process(pinger(env))
    env.call_later(2.0, pongs.append, "done")
    env.run()
    assert pongs == [1.0, "done"]
"""

from .kernel import Environment
from .randomness import RandomStreams, percentile
from .pool import Pool

__all__ = [
    "Environment",
    "Pool",
    "RandomStreams",
    "percentile",
]
