"""Event primitives for the discrete-event simulation kernel.

The kernel (:mod:`repro.sim.kernel`) advances virtual time by popping the
earliest scheduled :class:`Event` from its schedule (a head slot plus one
binary heap) and running its callbacks.  Processes — Python generators
that ``yield`` events — are resumed whenever the event they are waiting
on succeeds or fails.

The design intentionally mirrors a minimal SimPy: ``Environment.process``
wraps a generator into a :class:`Process`, ``Environment.timeout`` creates a
pre-scheduled :class:`Timeout`, and user code can create and succeed
arbitrary events.  A process that raises fails its :class:`Process` event.

Hot-path notes
--------------
Everything here sits under every simulated packet, frame and RPC, so the
implementation trades a little elegance for constant-factor speed:

* every event class uses ``__slots__`` (no per-event ``__dict__``),
* trigger paths call ``env._push(time, event)``, the kernel's raw
  schedule insert,
* :class:`Deferred` is a two-slot pseudo-event carrying a bare callback for
  one-shot "run ``fn(*args)`` after ``delay``" work, so subsystems don't
  need to spin up a whole :class:`Process` (generator + bootstrap event)
  just to apply a fixed latency,
* a :class:`Process` is itself the callback registered on the event it
  waits on (``__call__`` aliases :meth:`Process._resume`): appending the
  process avoids allocating a fresh bound method per resume, and lets
  the kernel's inlined run loop recognize process waiters and resume
  them without an extra call frame.
"""

from __future__ import annotations

from typing import Any, Callable, Generator, List, Optional, Tuple, TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checkers
    from .kernel import Environment

#: Sentinel stored in :attr:`Event._value` while the event is still pending.
PENDING = object()


class SimulationError(Exception):
    """Base class for errors raised by the simulation kernel."""


class Deferred:
    """A one-shot scheduled callback: the cheapest possible schedule entry.

    The kernel runs ``fn(*args)`` when the entry's time arrives — no
    callback list, no success/failure state, nothing to wait on.  Created
    via :meth:`Environment.call_later` / :meth:`Environment.call_at`; used
    throughout the network and LTL hot paths where the old code spawned a
    whole :class:`Process` just to ``yield timeout(d)`` and call a function.
    """

    __slots__ = ("fn", "args")

    def __init__(self, fn: Callable[..., None], args: Tuple = ()):
        self.fn = fn
        self.args = args

    def __repr__(self) -> str:
        name = getattr(self.fn, "__qualname__", repr(self.fn))
        return f"<Deferred {name}>"


class _Bootstrap:
    """Duck-typed stand-in for the event a process is first resumed with."""

    __slots__ = ()
    _ok = True
    _value = None


_BOOT = _Bootstrap()


class Event:
    """A condition that may succeed (with a value) or fail (with an error).

    Events move through three states: *pending* (just created), *triggered*
    (scheduled on the event queue but callbacks not yet run) and *processed*
    (callbacks executed).  Callbacks are plain callables receiving the event.
    """

    __slots__ = ("env", "callbacks", "_value", "_ok", "_defused")

    def __init__(self, env: "Environment"):
        self.env = env
        #: Callbacks invoked (in order) when the event is processed.
        self.callbacks: Optional[List[Callable[["Event"], None]]] = []
        self._value: Any = PENDING
        self._ok: bool = True
        self._defused: bool = False

    @property
    def triggered(self) -> bool:
        """True once the event has been scheduled for processing."""
        return self._value is not PENDING

    @property
    def processed(self) -> bool:
        """True once callbacks have run (callbacks list is discarded)."""
        return self.callbacks is None

    @property
    def ok(self) -> bool:
        """True if the event succeeded, False if it failed."""
        if not self.triggered:
            raise SimulationError("event not yet triggered")
        return self._ok

    @property
    def value(self) -> Any:
        """The success value or failure exception carried by the event."""
        if self._value is PENDING:
            raise SimulationError("event not yet triggered")
        return self._value

    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event as successful with an optional ``value``."""
        if self._value is not PENDING:
            raise SimulationError(f"{self!r} already triggered")
        self._ok = True
        self._value = value
        env = self.env
        env._push(env._now, self)
        return self

    def __repr__(self) -> str:
        state = "processed" if self.processed else (
            "triggered" if self.triggered else "pending")
        return f"<{type(self).__name__} {state} at {id(self):#x}>"


class Timeout(Event):
    """An event that succeeds after a fixed delay in virtual time.

    Built only by :meth:`Environment.timeout`, which fills the slots and
    schedules it inline.
    """

    __slots__ = ("delay",)

    def __repr__(self) -> str:
        return f"<Timeout delay={self.delay}>"


ProcessGenerator = Generator[Event, Any, Any]


class Process(Event):
    """A running coroutine of simulation events.

    A process wraps a generator that yields :class:`Event` objects.  The
    process itself is an event: it succeeds with the generator's return value
    or fails with any uncaught exception, so processes can wait on each other.

    The process object is registered *itself* as the callback on whatever
    event it waits on (it is callable; calling it resumes the generator).
    The kernel's inlined run loop relies on this to recognize and resume
    process waiters without any intermediate frames — keep
    :meth:`_resume` in sync with that inline copy when changing either.
    """

    __slots__ = ("generator", "_send", "name")

    def __init__(self, env: "Environment", generator: ProcessGenerator,
                 name: Optional[str] = None):
        super().__init__(env)
        if not hasattr(generator, "send"):
            raise TypeError(f"{generator!r} is not a generator")
        self.generator = generator
        self._send = generator.send
        self.name = name or getattr(generator, "__name__", "process")
        # Bootstrap: resume the generator at the current simulation time.
        # A Deferred is enough — nothing ever waits on the bootstrap event.
        env._push(env._now, Deferred(self._resume, (_BOOT,)))

    @property
    def is_alive(self) -> bool:
        """True while the wrapped generator has not finished."""
        return self._value is PENDING

    def _continue_processed(self, result: Event) -> None:
        """Re-arm on an event that has already been processed.

        Waiting on a processed event resumes the process immediately (at
        the current time, in FIFO turn) via a relay event carrying the
        original outcome.
        """
        env = self.env
        immediate = Event.__new__(Event)
        immediate.env = env
        immediate.callbacks = [self]
        immediate._ok = result._ok
        immediate._value = result._value
        immediate._defused = False
        if not result._ok:
            result._defused = True
            immediate._defused = True
        env._push(env._now, immediate)

    def _resume(self, event: Event) -> None:
        """Advance the generator with the outcome of ``event``.

        Mirrored by the inlined dispatch in :meth:`Environment.run`; any
        behavioral change here must be made there too.
        """
        env = self.env
        try:
            if event._ok:
                result = self._send(event._value)
            else:
                event._defused = True
                result = self.generator.throw(event._value)
        except StopIteration as stop:
            self._ok = True
            self._value = stop.value
            env._push(env._now, self)
            return
        except BaseException as exc:
            self._ok = False
            self._value = exc
            env._push(env._now, self)
            return

        try:
            callbacks = result.callbacks
        except AttributeError:
            raise SimulationError(
                f"process {self.name!r} yielded non-event {result!r}"
            ) from None
        if callbacks is None:
            # Already processed: resume immediately at the current time.
            self._continue_processed(result)
        else:
            callbacks.append(self)
            if not result._ok and result._value is not PENDING:
                result._defused = True

    #: Calling a process delivers an event outcome to it, so the process
    #: object itself can sit in an event's callback list.
    __call__ = _resume

    def __repr__(self) -> str:
        return f"<Process {self.name!r} {'alive' if self.is_alive else 'done'}>"
