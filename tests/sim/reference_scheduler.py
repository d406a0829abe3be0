"""Reference scheduler: one plain ``heapq`` of ``(time, seq)``.

The oracle for :class:`repro.sim.Environment`'s dispatch order.  Entries
dispatch earliest time first, then FIFO by insertion.  A bounded
``run(until=t)`` dispatches everything due at or before ``t``; an
exception from a callback ends the run with the clock at that callback's
time.
"""

import heapq

INF = float("inf")


class ReferenceScheduler:
    def __init__(self):
        self.now = 0.0
        self.dispatched = 0
        self._queue = []
        self._seq = 0

    def __len__(self):
        return len(self._queue)

    def push(self, delay, fn, *args):
        heapq.heappush(self._queue, (self.now + delay, self._seq, fn, args))
        self._seq += 1

    def run(self, until=INF):
        while self._queue and self._queue[0][0] <= until:
            self.now, _seq, fn, args = heapq.heappop(self._queue)
            self.dispatched += 1
            fn(*args)
        if until != INF:
            self.now = until
