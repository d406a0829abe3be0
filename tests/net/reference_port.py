"""The per-event transmit port: the oracle for :class:`repro.net.links.Port`.

This is the port as it was before it became packet-granular, kept
verbatim: every packet costs a zero-delay kick (when it finds the port
idle), a transmit-finish event and an arrival event, and the deliver
target is bound at transmit completion.
``tests/net/test_port_differential.py`` drives it and the production
port with the same random schedules and requires the same results.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Deque, Dict, Optional, Tuple

from repro.net.links import PortStats, propagation_delay
from repro.net.packet import Packet, TrafficClass
from repro.sim import Environment

#: Strict-priority drain order (highest traffic class first), precomputed
#: once instead of re-sorting on every packet.
_DRAIN_ORDER = tuple(sorted(TrafficClass.ALL, reverse=True))


class Port:
    """Transmit side of a link with per-traffic-class queues and PFC.

    ``deliver`` is the receive function on the far end: it is called with
    the packet once serialization + propagation complete.  Classes are
    drained strictly by priority (higher traffic-class number first), which
    models the switch giving the lossless class precedence.

    The drain is a callback state machine rather than a process: one
    :meth:`Environment.call_later` per serialization and one per
    propagation, with no generator, no wakeup store and no per-packet
    process objects on the datapath.
    """

    def __init__(self, env: Environment, name: str, rate_bps: float,
                 distance_m: float = 5.0,
                 deliver: Optional[Callable[[Packet], None]] = None,
                 queue_capacity_bytes: int = 1 << 20):
        self.env = env
        self.name = name
        self.rate_bps = rate_bps
        self.propagation = propagation_delay(distance_m)
        self.deliver = deliver
        self.queue_capacity_bytes = queue_capacity_bytes
        self.stats = PortStats()
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
        #: True while a packet is being serialized onto the wire.
        self._busy = False
        #: True while an idle->busy kick is already scheduled.
        self._kick_pending = False
        #: Optional hook invoked with each transmitted packet (telemetry).
        self.on_transmit: Optional[Callable[[Packet], None]] = None

    # ------------------------------------------------------------------
    # Enqueue / flow control
    # ------------------------------------------------------------------
    @property
    def queued_bytes_total(self) -> int:
        return self._queued_total

    def queued_bytes(self, tc: int) -> int:
        return self._queued_bytes[tc]

    def enqueue(self, packet: Packet) -> bool:
        """Queue ``packet`` for transmission.

        Returns False (and drops) if a non-lossless queue is full.  Lossless
        packets are always accepted — back-pressure is PFC's job.
        """
        tc = packet.traffic_class
        size = packet.wire_bytes
        if not TrafficClass.is_lossless(tc) and \
                self._queued_total + size > self.queue_capacity_bytes:
            self.stats.dropped += 1
            trace = packet.trace
            if trace is not None and not trace.protected:
                # Terminal loss (no reliable transport will resend):
                # close the span here so the recorder counts the drop
                # instead of leaking an open span.
                trace.abandon(self.env.now)
            return False
        self._queues[tc].append((packet, size))
        self._queued_bytes[tc] += size
        self._queued_total += size
        self.stats.enqueued += 1
        self._kick()
        return True

    def pause(self, tc: int) -> None:
        """PFC: stop transmitting class ``tc`` (idempotent)."""
        if not self._paused[tc]:
            self._paused[tc] = True
            self.stats.pause_events += 1

    def resume(self, tc: int) -> None:
        """PFC: resume transmitting class ``tc``."""
        if self._paused[tc]:
            self._paused[tc] = False
            self._kick()

    def is_paused(self, tc: int) -> bool:
        return self._paused[tc]

    # ------------------------------------------------------------------
    # Drain state machine
    # ------------------------------------------------------------------
    def _kick(self) -> None:
        """Schedule a drain start for this instant (idempotent).

        The one-event deferral matters: every enqueue arriving at the same
        timestamp is visible before the port picks a packet, so strict
        priority is decided over the whole same-instant batch — matching
        the old wakeup-store drain loop.
        """
        if not self._busy and not self._kick_pending:
            self._kick_pending = True
            self.env.call_later(0.0, self._kicked)

    def _kicked(self) -> None:
        self._kick_pending = False
        if not self._busy:
            self._start_next()

    def _next_packet(self) -> Optional[Tuple[Packet, int]]:
        for tc in _DRAIN_ORDER:
            if self._queues[tc] and not self._paused[tc]:
                packet, size = self._queues[tc].popleft()
                self._queued_bytes[tc] -= size
                self._queued_total -= size
                return packet, size
        return None

    def _start_next(self) -> None:
        """Begin serializing the next eligible packet, if any."""
        item = self._next_packet()
        if item is None:
            return
        packet, size = item
        self._busy = True
        delay = size * 8 / self.rate_bps
        self.env.call_later(delay, self._finish_tx, packet, size)

    def _finish_tx(self, packet: Packet, size: int) -> None:
        """Serialization done: launch the packet, pick up the next one."""
        self.stats.transmitted += 1
        self.stats.bytes_transmitted += size
        if self.on_transmit is not None:
            self.on_transmit(packet)
        deliver = self.deliver
        if deliver is not None:
            # A pause asserted mid-flight never recalls photons: the
            # packet propagates with whatever deliver target existed at
            # transmit completion, as before.
            if self.propagation <= 0:
                deliver(packet)
            else:
                self.env.call_later(self.propagation, deliver, packet)
        self._busy = False
        self._start_next()
