"""Events and processes that wait on them, for the process-style oracles.

The kernel steps a process only on delays.  The reference query paths
(:mod:`tests.ranking.reference_queues`) and the reference router
(:mod:`tests.router.reference_router`) also wait on events: a resource
grant, a send's completion, another process.  This shim runs them on the
kernel, drawing one schedule entry wherever SimPy-style events draw one:

* :meth:`Event.succeed` schedules the event at the current instant;
  dispatching it runs its callbacks in order;
* :func:`process` steps a generator now (one entry), resumes it inside
  the dispatch of whatever it waits on (one entry per delay it yields,
  none for an event), and succeeds its own event when it returns.
"""


class Event:
    """Succeeds once, with a value; runs its callbacks one entry later."""

    def __init__(self, env):
        self.env = env
        self.callbacks = []
        self.triggered = False
        self.value = None

    def succeed(self, value=None):
        self.triggered = True
        self.value = value
        self.env.call_later(0.0, self._dispatch)

    def _dispatch(self):
        callbacks, self.callbacks = self.callbacks, None
        for callback in callbacks:
            callback(self)


def process(env, generator):
    """Run ``generator``, which yields delays or events; return the
    event that succeeds with its return value."""
    done = Event(env)

    def step(value=None):
        try:
            target = generator.send(value)
        except StopIteration as stop:
            done.succeed(stop.value)
            return
        if isinstance(target, Event):
            target.callbacks.append(lambda event: step(event.value))
        else:
            env.call_later(target, step)

    env.call_later(0.0, step)
    return done
