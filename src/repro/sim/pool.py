"""A FIFO pool of identical servers, driven by callbacks.

:class:`Pool` models host cores, FPGA pipeline slots and accelerator
work queues.  A query holding a server is a chain of
:meth:`Environment.call_later` steps, not a process.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, Optional


class Pool:
    """``capacity`` identical servers and a FIFO ``queue`` of waiters.

    A waiter handed a server may give it straight back (a request whose
    deadline passed while it queued).  That release does not call the
    next waiter itself: the handing loop already running moves on to
    it, so a long run of such waiters never grows the stack.
    """

    __slots__ = ("free", "queue", "_handing")

    def __init__(self, capacity: int = 1):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.free = capacity
        self.queue: deque = deque()
        self._handing = False

    def acquire(self, fn: Callable[..., None],
                *args: Any) -> Optional[tuple]:
        """Run ``fn(*args)`` holding one server: now if one is free,
        else after every waiter queued before it.  Returns the queued
        waiter (for :meth:`cancel`), or None if ``fn`` already ran."""
        if self.free and not self.queue:
            self.free -= 1
            fn(*args)
            return None
        waiter = (fn, args)
        self.queue.append(waiter)
        return waiter

    def cancel(self, waiter: tuple) -> None:
        """Withdraw a waiter that is still queued."""
        for index, queued in enumerate(self.queue):
            if queued is waiter:
                del self.queue[index]
                return
        raise ValueError("waiter is not queued")

    def release(self) -> None:
        """Give one server back, handing it straight to the next waiter."""
        queue = self.queue
        if not queue or self._handing:
            self.free += 1
            return
        self._handing = True
        try:
            fn, args = queue.popleft()
            fn(*args)
            while self.free and queue:
                self.free -= 1
                fn, args = queue.popleft()
                fn(*args)
        finally:
            self._handing = False
