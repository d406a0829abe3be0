"""Discrete-event simulation kernel underlying every simulated subsystem.

Quick example::

    from repro.sim import Environment

    env = Environment()

    def pinger(env):
        yield env.timeout(1.0)
        return "pong"

    proc = env.process(pinger(env))
    env.run()
    assert proc.value == "pong"
"""

from .events import Event, Process, SimulationError, Timeout
from .kernel import Environment
from .randomness import RandomStreams, percentile
from .pool import Pool
from . import units

__all__ = [
    "Environment",
    "Event",
    "Process",
    "Pool",
    "RandomStreams",
    "SimulationError",
    "Timeout",
    "percentile",
    "units",
]
