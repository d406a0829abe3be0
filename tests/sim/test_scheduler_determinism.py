"""Determinism guarantees of the kernel scheduler.

The kernel orders every entry by ``(time, seq)`` whether it sits in the
head slot or the heap.  The fixed tests pin the observable contract:
same-instant FIFO and ``call_at`` / ``call_later`` interleaving.  The differential test runs random programs
on :class:`~repro.sim.Environment` and on a plain-``heapq`` reference
scheduler (:mod:`tests.sim.reference_scheduler`) and requires the same
dispatch order, clock, queue length and event count after every window.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import Environment

from .reference_scheduler import ReferenceScheduler


class TestSameInstantFifo:
    def test_call_later_same_instant_fifo(self):
        env = Environment()
        order = []
        for i in range(50):
            env.call_later(1e-6, order.append, i)
        env.run()
        assert order == list(range(50))

    def test_fifo_across_layers(self):
        """FIFO holds even when same-instant entries straddle the head
        slot and the heap."""
        env = Environment()
        order = []
        when = 1e-3
        for i in range(10):
            env.call_at(when, order.append, i)
        # An earlier entry takes the head slot and pushes the first
        # same-instant entry into the heap.
        env.call_later(when / 2, lambda: None)
        for i in range(10, 20):
            env.call_at(when, order.append, i)
        env.run()
        assert order == list(range(20))


class TestCallAtCallLaterInterleaving:
    def test_interleaved_global_order(self):
        env = Environment()
        order = []
        # Mixed absolute/relative scheduling landing on shared instants,
        # inserted out of time order.
        env.call_at(3e-6, order.append, "at-3us")
        env.call_later(1e-6, order.append, "later-1us")
        env.call_at(1e-6, order.append, "at-1us")       # ties later-1us
        env.call_later(3e-6, order.append, "later-3us")  # ties at-3us
        env.call_at(2e-3, order.append, "at-2ms")
        env.call_later(0.0, order.append, "later-0")
        env.call_later(2e-3, order.append, "later-2ms")  # ties at-2ms
        env.run()
        assert order == ["later-0", "later-1us", "at-1us", "at-3us",
                         "later-3us", "at-2ms", "later-2ms"]


# ----------------------------------------------------------------------
# Differential test against the reference scheduler
# ----------------------------------------------------------------------
#: Exactly representable tick: sums of DT never drift, so equal delays
#: produce exact ties.
DT = 2.0 ** -20


class Bomb(Exception):
    """Raised by a program's bomb to abort the window it fires in."""


class _Node:
    """One scheduled action of a random program."""

    def __init__(self, ident, kind, delays, children):
        self.ident = ident
        self.kind = kind        # later | proc
        self.delays = delays    # proc: one delay per step, else one
        self.children = children


_KINDS = st.sampled_from(["later", "proc"])
_DELAYS = st.lists(st.integers(0, 3), min_size=1, max_size=4)
_TREES = st.recursive(
    st.tuples(_KINDS, _DELAYS, st.just(())),
    lambda kids: st.tuples(_KINDS, _DELAYS,
                           st.lists(kids, max_size=3).map(tuple)),
    max_leaves=16)


def _build(tree, counter):
    kind, delays, children = tree
    ident = next(counter)
    if kind != "proc":
        delays = delays[:1]
    return _Node(ident, kind, [d * DT for d in delays],
                 [_build(child, counter) for child in children])


class _EnvDriver:
    """Interprets a program on the kernel."""

    def __init__(self, log):
        self.env = self.sched = Environment()
        self.log = log

    def dispatched(self):
        return self.env.events_processed

    def fire(self, node):
        self.log.append((self.env.now, node.ident))
        for child in node.children:
            self.start(child)

    def start(self, node):
        env = self.env
        if node.kind == "later":
            env.call_later(node.delays[0], self.fire, node)
        else:
            env.process(self._steps(node))

    def _steps(self, node):
        env = self.env
        self.log.append((env.now, node.ident, 0))
        for step, delay in enumerate(node.delays, 1):
            yield env.timeout(delay)
            self.log.append((env.now, node.ident, step))
        for child in node.children:
            self.start(child)

    def bomb(self, in_process, delay):
        env = self.env

        def explode():
            raise Bomb()

        def failing(env):
            yield env.timeout(delay)
            raise Bomb()

        if in_process:
            env.process(failing(env))
        else:
            env.call_later(delay, explode)


class _RefDriver:
    """Interprets the same program on the reference scheduler, drawing
    one entry wherever the kernel draws one: a process is its start and
    one entry per delay; its return draws none."""

    def __init__(self, log):
        self.ref = self.sched = ReferenceScheduler()
        self.log = log

    def dispatched(self):
        return self.ref.dispatched

    def fire(self, node):
        self.log.append((self.ref.now, node.ident))
        for child in node.children:
            self.start(child)

    def start(self, node):
        ref = self.ref
        if node.kind == "proc":
            ref.push(0.0, self._step, node, 0)
        else:
            ref.push(node.delays[0], self.fire, node)

    def _step(self, node, step):
        ref = self.ref
        self.log.append((ref.now, node.ident, step))
        if step < len(node.delays):
            ref.push(node.delays[step], self._step, node, step + 1)
            return
        for child in node.children:
            self.start(child)

    def bomb(self, in_process, delay):
        ref = self.ref

        def explode():
            raise Bomb()

        # The failing process: its start, then one delay, whose step
        # raises.
        if in_process:
            ref.push(0.0, ref.push, delay, explode)
        else:
            ref.push(delay, explode)


def _execute(driver, roots, bomb, windows):
    """Start the program, run each window, then drain (twice, in case
    the bomb aborts the first drain); return the observable state after
    every run call."""
    position, in_process, delay = bomb
    position = min(position, len(roots))
    for node in roots[:position]:
        driver.start(node)
    driver.bomb(in_process, delay * DT)
    for node in roots[position:]:
        driver.start(node)
    sched = driver.sched
    states = []
    for until in windows + [None, None]:
        try:
            if until is None:
                sched.run()
            else:
                sched.run(until=until)
            outcome = "ok"
        except Bomb:
            outcome = "bomb"
        states.append((outcome, sched.now, len(sched), driver.dispatched()))
    return states


@given(trees=st.lists(_TREES, min_size=1, max_size=6),
       bomb=st.tuples(st.integers(0, 5), st.booleans(), st.integers(0, 12)),
       windows=st.lists(st.integers(0, 14), max_size=5))
@settings(max_examples=200, deadline=None)
def test_dispatch_order_matches_reference(trees, bomb, windows):
    """Random programs — zero and tied delays, nested scheduling, process
    delay chains, bounded windows, one bomb that aborts the window it
    fires in — dispatch identically on the kernel and on the reference
    heap."""
    windows = [w * DT for w in sorted(set(windows))]
    counter = iter(range(10_000))
    roots = [_build(tree, counter) for tree in trees]

    env_log, ref_log = [], []
    env_driver, ref_driver = _EnvDriver(env_log), _RefDriver(ref_log)
    env_states = _execute(env_driver, roots, bomb, windows)
    ref_states = _execute(ref_driver, roots, bomb, windows)

    assert env_log == ref_log
    assert env_states == ref_states
    assert [s[0] for s in env_states].count("bomb") == 1
