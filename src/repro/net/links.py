"""Point-to-point links and transmit ports.

A :class:`Port` owns the transmit side of a link: packets queue per traffic
class, are serialized at the link rate, and arrive at the peer after the
link's propagation delay.  Priority-based flow control (PFC) pauses
individual traffic classes on the transmit side; the receiving switch
asserts/deasserts pause on its upstream ports.

The port is packet-granular: a packet that starts serializing schedules
only its arrival at the far end, so an uncontended hop costs one kernel
event.  A transmit-finish event exists only while a packet queues behind
the one on the wire, while the owning switch watches transmit
completions (PFC asserted on the port), or on a link without
propagation delay.  ``tests/net/reference_port.py`` keeps the earlier
per-event port (kick, finish and arrival events for every packet) as
the oracle, and ``tests/net/test_port_differential.py`` holds both to
the same results.

Latency attribution: links carry no trace tap of their own — the
*receiving* end (switch ingress or shell) taps
:attr:`repro.trace.Stage.LINK_WIRE`, so serialization + propagation is
attributed per physical hop at the point of arrival.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Deque, Dict, Optional, Tuple

from ..sim import Environment
from .packet import Packet, TrafficClass

#: Speed of light in fiber, metres per second (~2/3 c).
FIBER_METERS_PER_SECOND = 2.0e8

#: Strict-priority drain order (highest traffic class first), precomputed
#: once instead of re-sorting on every packet.
_DRAIN_ORDER = tuple(sorted(TrafficClass.ALL, reverse=True))

_INF = float("inf")
_LOSSLESS = TrafficClass.LOSSLESS


def propagation_delay(distance_m: float) -> float:
    """One-way propagation delay for ``distance_m`` metres of fiber."""
    if distance_m < 0:
        raise ValueError("distance must be non-negative")
    return distance_m / FIBER_METERS_PER_SECOND


class PortStats:
    """Counters for a single transmit port.

    A packet counts as transmitted once its last bit has left the port.
    """

    def __init__(self) -> None:
        self.enqueued = 0
        self.transmitted = 0
        self.dropped = 0
        self.bytes_transmitted = 0
        self.pause_events = 0

    def __repr__(self) -> str:
        return (f"PortStats(tx={self.transmitted}, drop={self.dropped}, "
                f"bytes={self.bytes_transmitted})")


class Port:
    """Transmit side of a link with per-traffic-class queues and PFC.

    ``deliver`` is the receive function on the far end: it is called with
    the packet once serialization + propagation complete.  Classes are
    drained strictly by priority (higher traffic-class number first), which
    models the switch giving the lossless class precedence.

    Two paths start a packet, and they give the same result:

    * **Launch.** A packet that reaches an idle port starts serializing
      at once when no other schedule entry is due at this instant (the
      head slot and the heap top are later) and no other port launched
      in this event.  Only its arrival is scheduled.  The launch stays
      provisional while the launching event runs, which the port reads
      from :attr:`Environment.events_processed` and the clock (both
      unchanged).  Meanwhile the packet still counts in
      :meth:`queued_bytes`, :attr:`queued_bytes_total` and the capacity
      check, as it would while a kick is pending.  An enqueue, pause or
      resume on the port during that time undoes the launch: the arrival
      is voided, the packet returns to the head of its queue and a kick
      takes over, in the place among same-instant entries that the
      launching enqueue would have given it.
    * **Kick.** Otherwise a zero-delay kick is scheduled, so every
      enqueue at this instant is visible before the port picks a packet
      and strict priority is decided over the whole batch.

    On both paths:

    * the arrival is scheduled when the packet starts, at ``(start +
      serialization) + propagation`` (two additions, in the order the
      per-event port made them, so the floats are equal), and
      same-instant arrivals over links of one kind keep one order;
    * the deliver target is bound when the packet starts: a later change
      of :attr:`deliver` reaches only packets that have not started.
      (The per-event port bound it at transmit completion, as this one
      still does on a link without propagation delay.)

    A transmit-finish event, at the packet's last bit, exists only when
    a packet queues behind the one on the wire, while :attr:`on_transmit`
    is set, or on a link without propagation delay, where the finish
    delivers.  It calls the hook, then starts the next packet.  One
    armed after its packet started takes the place among same-instant
    entries that it would have had if armed at the start.  The port
    is busy through the last bit's instant: an enqueue then joins the
    choice of the next packet, as it would ahead of the finish event.
    :attr:`stats` counts a packet once its last bit has left, in closed
    form: from that instant on, or from its finish event's dispatch
    while one is pending.

    Edge: a launch made outside a run stays provisional until an entry
    is dispatched or the clock moves, so a bounded run that ends at the
    launch instant without dispatching anything leaves it undoable.
    """

    def __init__(self, env: Environment, name: str, rate_bps: float,
                 distance_m: float = 5.0,
                 deliver: Optional[Callable[[Packet], None]] = None,
                 queue_capacity_bytes: int = 1 << 20):
        if rate_bps <= 0:
            raise ValueError("link rate must be positive")
        self.env = env
        self.name = name
        self.rate_bps = rate_bps
        self.propagation = propagation_delay(distance_m)
        self.deliver = deliver
        self.queue_capacity_bytes = queue_capacity_bytes
        self._stats = PortStats()
        #: Per-class FIFO of (packet, wire_bytes) — the size is computed
        #: once at enqueue and carried alongside, since ``wire_bytes`` is
        #: a derived property re-walking the header stack on every call.
        self._queues: Dict[int, Deque[Tuple[Packet, int]]] = {
            tc: deque() for tc in TrafficClass.ALL}
        self._queued_bytes: Dict[int, int] = {tc: 0 for tc in TrafficClass.ALL}
        #: Running sum of ``_queued_bytes`` — kept incrementally so the
        #: per-enqueue capacity check is O(1), not O(classes).
        self._queued_total = 0
        self._paused: Dict[int, bool] = {tc: False for tc in TrafficClass.ALL}
        #: When the last bit of the latest started packet leaves.
        self._busy_until = -_INF
        #: That packet, its size while it is not yet in ``stats``, and
        #: the kernel's next seq when it started.
        self._wire_packet: Optional[Packet] = None
        self._wire_size = 0
        self._wire_seq = 0
        #: True while a transmit-finish event is scheduled.
        self._finish_pending = False
        #: Bumped by an undone launch: voids the finish armed for it.
        self._epoch = 0
        #: True while a zero-delay kick is scheduled.
        self._kick_pending = False
        #: The provisional launch (of the packet on the wire): (time,
        #: events_processed, class, size, deliver cell), or None.
        #: Setting the cell's only item to None voids its arrival.
        self._launch: Optional[Tuple] = None
        self._on_transmit: Optional[Callable[[Packet], None]] = None

    # ------------------------------------------------------------------
    # Observation
    # ------------------------------------------------------------------
    @property
    def stats(self) -> PortStats:
        if self._wire_size and not self._finish_pending and \
                self.env._now >= self._busy_until:
            self._count_wire()
        return self._stats

    @property
    def queued_bytes_total(self) -> int:
        if self._launch is not None:
            self._provisional()
        return self._queued_total

    def queued_bytes(self, tc: int) -> int:
        if self._launch is not None:
            self._provisional()
        return self._queued_bytes[tc]

    @property
    def on_transmit(self) -> Optional[Callable[[Packet], None]]:
        """Hook called with each packet at its transmit completion, while
        set (the owning switch sets it while PFC is asserted here)."""
        return self._on_transmit

    @on_transmit.setter
    def on_transmit(self, hook: Optional[Callable[[Packet], None]]) -> None:
        self._on_transmit = hook
        if hook is not None and not self._finish_pending and \
                self.env._now <= self._busy_until:
            self._arm_finish()

    # ------------------------------------------------------------------
    # Enqueue / flow control
    # ------------------------------------------------------------------
    def enqueue(self, packet: Packet) -> bool:
        """Queue ``packet`` for transmission.

        Returns False (and drops) if a non-lossless queue is full.  Lossless
        packets are always accepted — back-pressure is PFC's job.
        """
        tc = packet.traffic_class
        size = packet.wire_bytes
        provisional = self._launch is not None and self._provisional()
        if tc != _LOSSLESS and \
                self._queued_total + size > self.queue_capacity_bytes:
            self._stats.dropped += 1
            trace = packet.trace
            if trace is not None and not trace.protected:
                # Terminal loss (no reliable transport will resend):
                # close the span here so the recorder counts the drop
                # instead of leaking an open span.
                trace.abandon(self.env.now)
            return False
        if provisional:
            self._undo()
        self._queued_bytes[tc] += size
        self._queued_total += size
        self._stats.enqueued += 1
        if self._kick_pending or self._finish_pending:
            self._queues[tc].append((packet, size))
        elif self.env._now <= self._busy_until:
            self._queues[tc].append((packet, size))
            self._arm_finish()
        elif self._queued_total == size and not self._paused[tc]:
            # Nothing else is queued: this packet is the port's choice.
            self._launch_or_kick(tc, packet, size)
        else:
            self._queues[tc].append((packet, size))
            self._start_idle()
        return True

    def pause(self, tc: int) -> None:
        """PFC: stop transmitting class ``tc`` (idempotent)."""
        if not self._paused[tc]:
            if self._launch is not None and self._provisional():
                self._undo()
            self._paused[tc] = True
            self._stats.pause_events += 1

    def resume(self, tc: int) -> None:
        """PFC: resume transmitting class ``tc``."""
        if self._paused[tc]:
            if self._launch is not None and self._provisional():
                self._undo()
            self._paused[tc] = False
            if self._queues[tc] and not (self._kick_pending
                                         or self._finish_pending):
                if self.env._now <= self._busy_until:
                    self._arm_finish()
                else:
                    self._start_idle()

    def is_paused(self, tc: int) -> bool:
        return self._paused[tc]

    # ------------------------------------------------------------------
    # Drain
    # ------------------------------------------------------------------
    def _start_idle(self) -> None:
        """The port is idle: start the best eligible packet."""
        for tc in _DRAIN_ORDER:
            queue = self._queues[tc]
            if queue and not self._paused[tc]:
                packet, size = queue.popleft()
                self._launch_or_kick(tc, packet, size)
                return
        # Only paused classes hold packets.  The kick still goes in, as
        # on the reference, so that a resume later at this instant takes
        # the kick's place, not a later one's.
        self._kick()

    def _launch_or_kick(self, tc: int, packet: Packet, size: int) -> None:
        """Launch ``packet`` (the idle port's choice, out of its queue)
        unless another entry is due at this instant or another port
        launched in this event: then it goes back to the head of its
        queue and a kick decides."""
        env = self.env
        now = env._now
        top = env._head
        if top is None and env._heap:
            top = env._heap[0]
        # The bounded-run sentinel (seq +inf) sorts after every entry at
        # its instant, so it does not count as due.
        if top is None or top[0] != now or top[1] == _INF:
            mark = env.events_processed
            last = env._port_launch
            # A second launch in one event would draw its entries before
            # the first port's restart, should that launch be undone;
            # the reference's kicks draw them in enqueue order.
            if last is None or last[1] != now or last[0] != mark:
                env._port_launch = (mark, now)
                # The queue counters keep the packet until the launch is
                # final (see _provisional).
                self._launch = (now, mark, tc, size,
                                cell := [self.deliver])
                end = self._begin(packet, size, self._queued_total - size)
                if cell[0] is not None and self.propagation > 0:
                    env.call_at(end + self.propagation, self._arrive,
                                cell, packet)
                return
        self._queues[tc].appendleft((packet, size))
        self._kick()

    def _provisional(self) -> bool:
        """Whether the launch in ``_launch`` may still be undone: no
        entry has been dispatched since, at this instant.  Otherwise the
        launch is final and its packet leaves the queue counters."""
        when, mark, tc, size, _cell = self._launch
        env = self.env
        if env._now == when and env.events_processed == mark:
            return True
        self._launch = None
        self._queued_bytes[tc] -= size
        self._queued_total -= size
        return False

    def _undo(self) -> None:
        """The launching event touched the port again: take the launch
        back and let a kick decide over the whole batch.  The kick takes
        the place among same-instant entries that it would have had if
        the launching enqueue had scheduled it."""
        _when, _mark, tc, size, cell = self._launch
        self._launch = None
        cell[0] = None
        self._epoch += 1
        self._finish_pending = False
        self._queues[tc].appendleft((self._wire_packet, size))
        self._busy_until = -_INF
        self._wire_size = 0
        self._kick_pending = True
        env = self.env
        env._call_at_before(env._now, self._wire_seq, self._kicked)

    def _kick(self) -> None:
        """Schedule a drain start for this instant (idempotent)."""
        if not self._kick_pending:
            self._kick_pending = True
            self.env.call_later(0.0, self._kicked)

    def _kicked(self) -> None:
        self._kick_pending = False
        self._start_next()

    def _start_next(self) -> None:
        """Begin serializing the next eligible packet, if any."""
        if self._launch is not None:
            self._provisional()
        for tc in _DRAIN_ORDER:
            queue = self._queues[tc]
            if queue and not self._paused[tc]:
                packet, size = queue.popleft()
                self._queued_bytes[tc] -= size
                self._queued_total -= size
                end = self._begin(packet, size, self._queued_total)
                deliver = self.deliver
                if deliver is not None and self.propagation > 0:
                    self.env.call_at(end + self.propagation, deliver, packet)
                return

    def _begin(self, packet: Packet, size: int, behind: int) -> float:
        """Put ``packet`` on the wire now; return when its last bit
        leaves.  ``behind`` is the number of bytes queued after it."""
        if self._wire_size:
            # The previous packet left before now, with no finish event.
            self._count_wire()
        env = self.env
        end = env._now + size * 8 / self.rate_bps
        self._busy_until = end
        self._wire_packet = packet
        self._wire_size = size
        self._wire_seq = env._seq
        if behind or self._on_transmit is not None or \
                self.propagation <= 0:
            self._finish_pending = True
            env.call_at(end, self._finish, self._epoch)
        return end

    def _arm_finish(self) -> None:
        """Schedule the finish of the packet on the wire after its
        start, in the place among same-instant entries that it would
        have had if scheduled at the start."""
        self._finish_pending = True
        self.env._call_at_before(self._busy_until, self._wire_seq,
                                 self._finish, self._epoch)

    def _finish(self, epoch: int) -> None:
        """The last bit has left: call the hook (and, over a link with
        no propagation delay, deliver), then start the next packet.  The
        port counts as busy until then, so whatever the hook or the far
        end enqueues here joins the choice of the next packet."""
        if epoch != self._epoch:
            return  # armed for an undone launch
        if self._wire_size:
            self._count_wire()
        packet = self._wire_packet
        hook = self._on_transmit
        if hook is not None:
            hook(packet)
        if self.propagation <= 0:
            deliver = self.deliver
            if deliver is not None:
                deliver(packet)
        self._finish_pending = False
        self._start_next()

    def _arrive(self, cell: list, packet: Packet) -> None:
        deliver = cell[0]
        if deliver is not None:
            deliver(packet)

    def _count_wire(self) -> None:
        stats = self._stats
        stats.transmitted += 1
        stats.bytes_transmitted += self._wire_size
        self._wire_size = 0
