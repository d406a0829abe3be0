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

from .. import _lazy_exports

__all__, __getattr__, __dir__ = _lazy_exports(globals(), {
    "kernel": ("Environment",),
    "pool": ("Pool",),
    "randomness": ("RandomStreams", "percentile"),
})
