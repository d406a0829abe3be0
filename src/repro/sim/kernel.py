"""The discrete-event simulation environment.

:class:`Environment` owns virtual time and the schedule.  All simulated
subsystems (network switches, LTL engines, FPGA roles, ranking servers)
schedule work here.  Time is in **seconds** throughout the library.

Scheduler
---------
Every scheduled entry is a ``(time, seq, fn, args)`` tuple, and entries
dispatch in ``(time, seq)`` order: earliest time first, then FIFO by
``seq``.  Dispatching one calls ``fn(*args)``.  (A caller placing late
work where it would have stood if scheduled earlier gets a half-step
``seq`` from ``_call_at_before``.)  The schedule has two parts:

* a one-entry **head slot** holding an entry that sorts before
  everything else queued.  In chain-style workloads (a callback
  schedules the very next entry) pushes and pops never touch the heap:
  arming the slot is one compare, popping it is one load.
* one binary **heap** (:mod:`heapq`) for everything else.

Work is scheduled with :meth:`Environment.call_later` and
:meth:`Environment.call_at`.  A *process* (:meth:`Environment.process`)
is a generator stepped on ``call_later``: it yields delays
(:meth:`Environment.timeout`) and nothing else, so waiting costs one
entry per delay and a finished process costs none.

Determinism contract: a seeded run is bit-identical to itself — across
repeated runs and across any split into bounded ``run(until=...)``
windows — and every EXPERIMENTS.md row holds within its tolerance.
``tests/sim/test_scheduler_determinism.py`` checks the dispatch order
against a plain-``heapq`` reference scheduler.

``run()`` is the innermost loop of every experiment and the only way to
advance time.  Instrumentation reading ``env.now`` must never write
back: trace taps (:mod:`repro.trace`) only record timestamps — they
schedule nothing and draw no randomness, so enabling them cannot
perturb seeded runs.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from typing import Any, Callable, Generator, Optional, Tuple

__all__ = ["Environment"]

_INF = float("inf")
#: What ``next`` returns for a process that has returned.
_DONE = object()


class _StopRun(BaseException):
    """Internal control-flow signal: a bounded run reached its horizon.

    Derives from :class:`BaseException` so simulation code catching
    ``Exception`` can never swallow it (it is only ever raised in the
    kernel's own dispatch loop, never inside user generators).
    """


class Environment:
    """Execution environment for a discrete-event simulation.

    The schedule holds ``(time, seq, fn, args)`` tuples in a head slot
    plus one binary heap (see the module docstring).  ``seq`` is a
    monotonically increasing tie-breaker so that entries scheduled for
    the same instant run in FIFO order, which keeps runs deterministic.
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
        #: Bounded-run sentinels spent (dispatched or removed): each drew
        #: a seq but is not a dispatched entry.
        self._stops = 0
        #: ``(launch mark, now)`` of the latest launch by a transmit
        #: port (see :class:`repro.net.links.Port`): at most one port
        #: launches per event.
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
        """Total entries dispatched so far — the numerator of every
        events/sec benchmark.

        Counted by sequence accounting rather than by an increment in
        the dispatch loop: every seq draw enters the schedule exactly
        once, so dispatches = draws - entries still queued - spent
        bounded-run sentinels (each draws a seq too).  The value is
        live: it also advances inside a run, once per dispatched entry.
        (:class:`repro.net.links.Port` computes the first three terms in
        place, as its launch mark: that count also moves when a
        sentinel is dispatched, and does not move when one is armed.)
        """
        return (self._seq - len(self._heap) - (self._head is not None)
                - self._stops)

    # ------------------------------------------------------------------
    # Processes
    # ------------------------------------------------------------------
    def timeout(self, delay: float) -> float:
        """What a process yields to wait ``delay`` seconds."""
        if delay < 0:
            raise ValueError(f"negative timeout delay: {delay}")
        return delay

    def process(self, generator: Generator[float, None, Any]) -> None:
        """Step ``generator`` now, in FIFO turn, and again each time a
        delay it yields has passed.  It may yield only delays; an
        exception it raises leaves :meth:`run` at once."""
        if not hasattr(generator, "send"):
            raise TypeError(f"{generator!r} is not a generator")
        self.call_later(0.0, self._step, generator)

    def _step(self, generator: Generator[float, None, Any]) -> None:
        """Resume a process; schedule its next step after the delay it
        yields, or nothing once it returns.  (``next`` with a default
        ends a process without raising StopIteration.)"""
        delay = next(generator, _DONE)
        if delay is _DONE:
            return
        try:
            self.call_later(delay, self._step, generator)
        except TypeError:
            raise TypeError(f"{generator!r} yielded {delay!r}, "
                            "not a delay") from None

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
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
        self._insert((when, seq - 0.5, fn, args))

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

        (``_insert`` is inlined: this is the kernel's most-trafficked
        insert path.)
        """
        if delay < 0:
            raise ValueError(f"negative call_later delay: {delay}")
        seq = self._seq
        self._seq = seq + 1
        entry = (self._now + delay, seq, fn, args)
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

        (``_insert`` is inlined, as in :meth:`call_later`: every port
        arrival and every streamed router exit is scheduled here.)
        """
        if when < self._now:
            raise ValueError(
                f"call_at({when}) is in the past (now={self._now})")
        seq = self._seq
        self._seq = seq + 1
        entry = (when, seq, fn, args)
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
        else through every entry due at or before time ``until``, ending
        with the clock at ``until``."""
        if until is None:
            stop_time = _INF
        else:
            stop_time = float(until)
            if stop_time < self._now:
                raise ValueError(
                    f"until ({stop_time}) is in the past (now={self._now})")

        heap = self._heap
        # No dispatch counter here: ``events_processed`` is derived
        # from the seq accounting, saving an interpreted increment per
        # entry in the hottest loop of the repo.
        sentinel: Optional[Tuple] = None
        if stop_time != _INF:
            # Bounded run.  Comparing ``entry[0] > stop_time`` on every
            # pop costs ~40% of loop throughput, so instead a sentinel is
            # scheduled *at* the stop time, keyed with an infinite seq so
            # it sorts after every entry due at that instant; dispatching
            # it raises :class:`_StopRun`, ending the run.  A run that
            # terminates with an exception removes its own sentinel in
            # the ``finally`` below — left behind, it would be a phantom
            # entry (``len`` would count it) that the next bounded run
            # would pop and miscount.  It draws a seq like any entry
            # (its key keeps the infinite seq), so arming it leaves the
            # draws-minus-queued count alone and spending it moves that
            # count; ``events_processed`` subtracts the spent ones.  The
            # identity token additionally keeps any stale sentinel from
            # stopping a later run.
            token = self._stop_token = object()
            sentinel = (stop_time, _INF, self._raise_stop, (token,))
            self._seq += 1
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
                entry[2](*entry[3])
        except _StopRun:
            consumed = True
        finally:
            self._stop_token = None
            if sentinel is not None:
                self._stops += 1
                if not consumed:
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
