"""A FIFO pool of identical servers, driven by callbacks.

:class:`Pool` models host cores, FPGA pipeline slots and accelerator
work queues.  A query holding a server is a chain of
:meth:`Environment.call_later` steps, not a process.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable


class Pool:
    """``capacity`` identical servers and a FIFO ``queue`` of waiters.

    ``free`` counts the idle servers; a waiter queues only while none
    is idle.  A server given back goes straight to the next waiter, so
    ``free`` grows only when nobody is waiting.  A waiter runs inside
    :meth:`acquire` or :meth:`release`, so it only schedules its work:
    one that released at once would run the next waiter on its stack.
    """

    __slots__ = ("free", "queue")

    def __init__(self, capacity: int = 1):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.free = capacity
        self.queue: deque = deque()

    def acquire(self, fn: Callable[..., None], *args: Any) -> None:
        """Run ``fn(*args)`` holding one server: now if one is free,
        else after every waiter queued before it."""
        if self.free:
            self.free -= 1
            fn(*args)
        else:
            self.queue.append((fn, args))

    def release(self) -> None:
        """Give one server back, handing it straight to the next waiter."""
        if self.queue:
            fn, args = self.queue.popleft()
            fn(*args)
        else:
            self.free += 1
