"""Reference scheduler: one plain ``heapq`` of ``(time, priority, seq)``.

The oracle for :class:`repro.sim.Environment`'s dispatch order.  Entries
dispatch earliest time first, URGENT before NORMAL at the same instant,
then FIFO by insertion.  A bounded ``run(until=t)`` dispatches everything
due at or before ``t``; an exception from a callback ends the run with the
clock at that callback's time.
"""

import heapq

URGENT, NORMAL = 0, 1
INF = float("inf")


class ReferenceScheduler:
    def __init__(self):
        self.now = 0.0
        self.dispatched = 0
        self._queue = []
        self._seq = 0

    def __len__(self):
        return len(self._queue)

    def peek(self):
        return self._queue[0][0] if self._queue else INF

    def push(self, delay, fn, *args, priority=NORMAL):
        entry = (self.now + delay, priority, self._seq, fn, args)
        heapq.heappush(self._queue, entry)
        self._seq += 1

    def run(self, until=INF):
        while self._queue and self._queue[0][0] <= until:
            self.now, _priority, _seq, fn, args = heapq.heappop(self._queue)
            self.dispatched += 1
            fn(*args)
        if until != INF:
            self.now = until
