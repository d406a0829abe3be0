"""The discrete-event simulation environment.

:class:`Environment` owns virtual time and the event schedule.  All
simulated subsystems (network switches, LTL engines, FPGA roles, ranking
servers) schedule work here.  Time units are **seconds** throughout the
library; helpers for microseconds/nanoseconds live in
:mod:`repro.sim.units`.

Scheduler
---------
Every scheduled entry is a ``(time, seq, event)`` tuple, and entries
dispatch in exactly that tuple order: earliest time first, then FIFO by
``seq``.  (A caller placing late work where it would have stood if
scheduled earlier gets a half-step ``seq`` from ``_call_at_before``.)
The schedule has two parts:

* a one-entry **head slot** holding an entry that sorts before
  everything else queued.  In chain-style workloads (an event's handler
  schedules the very next event) pushes and pops never touch the heap:
  arming the slot is one compare, popping it is one load.
* one binary **heap** (:mod:`heapq`) for everything else.

Determinism contract: a seeded run is bit-identical to itself — across
repeated runs and across any split into bounded ``run(until=...)``
windows — and every EXPERIMENTS.md row holds within its tolerance.
``tests/sim/test_scheduler_determinism.py`` checks the dispatch order
against a plain-``heapq`` reference scheduler.

Performance
-----------
``run()`` is the innermost loop of every experiment and the only way to
advance time.  It binds its hot names locally and has two dispatch fast
paths:

* an event whose only waiter is a :class:`~repro.sim.events.Process` is
  resumed inline (no bound-method allocation, no extra frame);
* when the event a process just yielded is itself the next event due
  (the common ``while True: yield timeout(d)`` shape), the loop chains
  straight into the next resume without re-entering the generic
  dispatcher.

One-shot latency callbacks (apply delay *d*, then call ``fn``) should
use :meth:`Environment.call_later` rather than spawning a process: a
:class:`~repro.sim.events.Deferred` costs one schedule entry and no
generator.

Instrumentation reading ``env.now`` must never write back: trace taps
(:mod:`repro.trace`) only record timestamps — they schedule no events
and draw no randomness, so enabling them cannot perturb seeded runs.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from typing import Any, Callable, Optional, Tuple

from .events import (
    PENDING,
    Deferred,
    Event,
    Process,
    ProcessGenerator,
    SimulationError,
    Timeout,
)

__all__ = ["Environment"]

_INF = float("inf")


class _StopRun(BaseException):
    """Internal control-flow signal: a bounded run reached its horizon.

    Derives from :class:`BaseException` so simulation code catching
    ``Exception`` can never swallow it (it is only ever raised in the
    kernel's own dispatch loop, never inside user generators).
    """


class Environment:
    """Execution environment for a discrete-event simulation.

    The schedule holds ``(time, seq, event)`` tuples in a head slot plus
    one binary heap (see the module docstring).  ``seq`` is a
    monotonically increasing tie-breaker so that events scheduled at the
    same instant are processed in FIFO order, which keeps runs
    deterministic.
    """

    def __init__(self, initial_time: float = 0.0):
        self._now = float(initial_time)
        self._seq = 0
        #: Head slot: an entry that sorts before everything in the heap,
        #: or None.
        self._head: Optional[Tuple] = None
        #: Every other scheduled entry.
        self._heap: list = []
        #: Identity token of the currently armed bounded-run sentinel
        #: (None outside a bounded run).  A sentinel left behind by a
        #: run that terminated with an exception no-ops on mismatch.
        self._stop_token: Optional[object] = None
        #: ``(events_processed, now)`` of the latest launch by a
        #: transmit port (see :class:`repro.net.links.Port`): at most
        #: one port launches per event.
        self._port_launch: Optional[Tuple[int, float]] = None

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        """Current simulation time in seconds."""
        return self._now

    def __len__(self) -> int:
        """Number of scheduled entries."""
        return len(self._heap) + (self._head is not None)

    @property
    def events_processed(self) -> int:
        """Total entries (events and deferred callbacks) dispatched so
        far — the numerator of every events/sec benchmark.

        Counted by sequence accounting rather than by an increment in
        the dispatch loop: every seq draw enters the schedule exactly
        once, so dispatches = draws - entries still queued.  The
        bounded-run sentinel draws no seq; while it is armed it is
        discounted.  The value is live: it also advances inside a run,
        once per dispatched entry.
        """
        return (self._seq - len(self._heap) - (self._head is not None)
                + (self._stop_token is not None))

    # ------------------------------------------------------------------
    # Event creation
    # ------------------------------------------------------------------
    def event(self) -> Event:
        """Create an untriggered event owned by this environment."""
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """Create an event that succeeds ``delay`` seconds from now."""
        if delay < 0:
            raise ValueError(f"negative timeout delay: {delay}")
        # Slots filled and push inlined here: timeouts are the single
        # most created object in any simulation.
        t = Timeout.__new__(Timeout)
        t.env = self
        t.callbacks = []
        t._value = value
        t._ok = True
        t._defused = False
        t.delay = delay
        seq = self._seq
        self._seq = seq + 1
        entry = (self._now + delay, seq, t)
        head = self._head
        if head is None:
            heap = self._heap
            if not heap or entry < heap[0]:
                self._head = entry
                return t
        elif entry < head:
            heappush(self._heap, head)
            self._head = entry
            return t
        heappush(self._heap, entry)
        return t

    def process(self, generator: ProcessGenerator,
                name: Optional[str] = None) -> Process:
        """Start a new process from a generator of events."""
        return Process(self, generator, name=name)

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def _push(self, when: float, event: Any) -> None:
        """Schedule ``event`` at absolute time ``when`` (no validation)."""
        seq = self._seq
        self._seq = seq + 1
        self._insert((when, seq, event))

    def _insert(self, entry: Tuple) -> None:
        """Place ``entry`` in the head slot or the heap."""
        head = self._head
        if head is None:
            # Arm the head slot only when the new entry provably beats
            # everything queued, so `head <= heap min` stays true.
            heap = self._heap
            if not heap or entry < heap[0]:
                self._head = entry
                return
        elif entry < head:
            heappush(self._heap, head)
            self._head = entry
            return
        heappush(self._heap, entry)

    def _call_at_before(self, when: float, seq: int,
                        fn: Callable[..., None], *args: Any) -> None:
        """Run ``fn(*args)`` at ``when``, placed among the entries due
        then just before one that drew ``seq`` (or would have).

        For a caller scheduling late what it could have scheduled at
        draw ``seq``, and wanting the place it would have had then (a
        transmit port, see :class:`repro.net.links.Port`).  One seq is
        drawn and left unused, so every draw still matches one entry and
        :attr:`events_processed` stays exact.
        """
        self._seq += 1
        self._insert((when, seq - 0.5, Deferred(fn, args)))

    def _remove_entry(self, entry: Tuple) -> None:
        """Remove a specific queued ``entry``.

        Only the bounded-run sentinel cleanup uses this — it is O(n) and
        never on the hot path.
        """
        if self._head is entry:
            self._head = None
            return
        self._heap.remove(entry)
        heapify(self._heap)

    def call_later(self, delay: float, fn: Callable[..., None],
                   *args: Any) -> None:
        """Run ``fn(*args)`` after ``delay`` seconds of virtual time.

        The fast path for one-shot latency modeling: one slotted
        schedule entry, no :class:`Event` machinery, nothing to wait on.
        Use a process (or ``timeout``) when something must be able to
        wait on the result.  (``_push`` is inlined: this is the kernel's
        most-trafficked insert path.)
        """
        if delay < 0:
            raise ValueError(f"negative call_later delay: {delay}")
        seq = self._seq
        self._seq = seq + 1
        entry = (self._now + delay, seq, Deferred(fn, args))
        head = self._head
        if head is None:
            heap = self._heap
            if not heap or entry < heap[0]:
                self._head = entry
                return
        elif entry < head:
            heappush(self._heap, head)
            self._head = entry
            return
        heappush(self._heap, entry)

    def call_at(self, when: float, fn: Callable[..., None],
                *args: Any) -> None:
        """Run ``fn(*args)`` at absolute virtual time ``when``.

        (``_push`` is inlined, as in :meth:`call_later`: every port
        arrival and every streamed router exit is scheduled here.)
        """
        if when < self._now:
            raise ValueError(
                f"call_at({when}) is in the past (now={self._now})")
        seq = self._seq
        self._seq = seq + 1
        entry = (when, seq, Deferred(fn, args))
        head = self._head
        if head is None:
            heap = self._heap
            if not heap or entry < heap[0]:
                self._head = entry
                return
        elif entry < head:
            heappush(self._heap, head)
            self._head = entry
            return
        heappush(self._heap, entry)

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run(self, until: Optional[float] = None) -> None:
        """Run the simulation: to exhaustion when ``until`` is None,
        else through every event due at or before time ``until``, ending
        with the clock at ``until``."""
        if until is None:
            stop_time = _INF
        else:
            stop_time = float(until)
            if stop_time < self._now:
                raise ValueError(
                    f"until ({stop_time}) is in the past (now={self._now})")

        heap = self._heap
        push = self._push
        # No dispatch counter here: ``events_processed`` is derived
        # from the seq accounting, saving an interpreted increment per
        # event in the hottest loop of the repo.
        sentinel: Optional[Tuple] = None
        if stop_time != _INF:
            # Bounded run.  Comparing ``entry[0] > stop_time`` on every
            # pop costs ~40% of loop throughput, so instead a sentinel is
            # scheduled *at* the stop time, keyed with an infinite seq so
            # it sorts after every simulation event due at that instant;
            # dispatching it raises :class:`_StopRun`, ending the run.
            # The head-slot invariant (head <= heap min) guarantees the
            # chain fast path below can never overtake the sentinel.  A
            # run that terminates with an exception removes its own
            # sentinel in the ``finally`` below — left behind, it would
            # be a phantom entry (``len`` would count a nonexistent
            # event at ``stop_time``) that the next bounded run would pop
            # and miscount.  It draws no seq, and ``events_processed``
            # discounts it while the token is set.  The identity token
            # additionally keeps any stale sentinel from stopping a
            # later run.
            token = self._stop_token = object()
            sentinel = (stop_time, _INF,
                        Deferred(self._raise_stop, (token,)))
            self._insert(sentinel)
        consumed = False
        try:
            while True:
                entry = self._head
                if entry is not None:
                    self._head = None
                elif heap:
                    entry = heappop(heap)
                else:
                    break
                self._now = entry[0]
                event = entry[2]
                if event.__class__ is Deferred:
                    event.fn(*event.args)
                    continue
                callbacks = event.callbacks
                event.callbacks = None
                if len(callbacks) == 1 and \
                        (proc := callbacks[0]).__class__ is Process:
                    # Inlined Process._resume (keep in sync with
                    # events.Process._resume): resuming a process is
                    # the second-hottest operation after Deferred
                    # dispatch, and the inline saves a bound-method
                    # allocation plus a frame per event.
                    while True:
                        try:
                            if event._ok:
                                result = proc._send(event._value)
                            else:
                                event._defused = True
                                result = proc.generator.throw(
                                    event._value)
                        except StopIteration as stop:
                            proc._ok = True
                            proc._value = stop.value
                            push(self._now, proc)
                            break
                        except BaseException as exc:
                            proc._ok = False
                            proc._value = exc
                            push(self._now, proc)
                            break
                        try:
                            rcb = result.callbacks
                        except AttributeError:
                            raise SimulationError(
                                f"process {proc.name!r} yielded "
                                f"non-event {result!r}") from None
                        if rcb is None:
                            proc._continue_processed(result)
                            break
                        sole = not rcb
                        rcb.append(proc)
                        if not result._ok and \
                                result._value is not PENDING:
                            result._defused = True
                        # Chain: if the event the process just
                        # yielded is itself the next event due (and
                        # has no other waiter), dispatch it without
                        # re-entering the generic loop.
                        head = self._head
                        if head is None or head[2] is not result \
                                or not sole:
                            break
                        self._head = None
                        self._now = head[0]
                        result.callbacks = None
                        event = result
                    continue
                for callback in callbacks:
                    callback(event)
                if not event._ok and not event._defused:
                    raise event._value
        except _StopRun:
            consumed = True
        finally:
            self._stop_token = None
            if sentinel is not None and not consumed:
                # An exception escaped mid-window: pull the unspent
                # sentinel back out so repeated bounded runs stay
                # exactly equivalent to one long run.
                self._remove_entry(sentinel)
        if stop_time != _INF:
            self._now = stop_time

    def _raise_stop(self, token: object) -> None:
        """Dispatch target of the bounded-run stop sentinel."""
        if token is self._stop_token:
            raise _StopRun
