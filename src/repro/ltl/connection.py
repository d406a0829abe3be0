"""Send and receive connection tables.

LTL "uses an ordered, reliable connection-based interface with statically
allocated, persistent connections, realized using send and receive
connection tables."  A connection is unidirectional: the sender holds a
:class:`SendConnectionState` (next sequence number, unacknowledged frame
store, DC-QCN rate state) and the receiver holds a
:class:`ReceiveConnectionState` (expected sequence, reorder buffer,
message reassembly).
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Any, Dict, List, Tuple

from ..net.dcqcn import DcqcnConfig, DcqcnRateController
from .frames import LtlFrame


class ConnectionError_(Exception):
    """Raised for connection-table misuse (unknown/duplicate ids)."""


@dataclass(slots=True)
class UnackedFrame:
    """A transmitted DATA frame awaiting acknowledgement."""

    frame: LtlFrame
    first_sent_at: float
    last_sent_at: float
    transmissions: int = 1
    #: Trace-trail length right after the first transmit's tap.  On a
    #: retransmission the engine rewinds the frame's TraceContext here so
    #: the doomed traversal's wire/switch marks are not double-counted
    #: (the wait lands in ``ltl.retx`` instead).
    trace_checkpoint: int = 0


@dataclass
class SendConnectionState:
    """Sender half of a connection."""

    connection_id: int
    remote_host: int
    remote_connection_id: int
    vc: int = 0
    next_seq: int = 0
    #: Highest seq cumulatively acknowledged by the receiver.
    acked_seq: int = -1
    #: seq -> UnackedFrame, insertion-ordered (oldest first).
    unacked: "OrderedDict[int, UnackedFrame]" = field(
        default_factory=OrderedDict)
    #: Frames waiting for window space, FIFO.
    send_queue: List[LtlFrame] = field(default_factory=list)
    dcqcn: DcqcnRateController = field(
        default_factory=lambda: DcqcnRateController(DcqcnConfig()))
    #: Consecutive timeout events with no forward progress.
    consecutive_timeouts: int = 0
    failed: bool = False
    #: Whether a degraded (gray) report was already emitted for the
    #: current run of timeouts; reset on forward progress.
    degraded_reported: bool = False
    #: Reconnect probes issued since the connection failed.
    reconnect_attempts: int = 0
    #: Earliest time the next reconnect probe may go out.
    reconnect_at: float = 0.0
    # statistics
    frames_sent: int = 0
    retransmissions: int = 0
    recoveries: int = 0
    rtt_samples: List[float] = field(default_factory=list)

    @property
    def in_flight(self) -> int:
        return len(self.unacked)

    def oldest_unacked_age(self, now: float) -> float:
        """Seconds since the oldest unacked frame was last (re)sent."""
        if not self.unacked:
            return 0.0
        oldest = next(iter(self.unacked.values()))
        return now - oldest.last_sent_at

    def apply_ack(self, ack_seq: int, now: float) -> int:
        """Drop frames up to ``ack_seq``; record RTTs; return count freed."""
        freed = 0
        while self.unacked:
            seq, entry = next(iter(self.unacked.items()))
            if seq > ack_seq:
                break
            del self.unacked[seq]
            freed += 1
            # RTT measured "from the moment the header of a packet is
            # generated in LTL until the corresponding ACK ... is received"
            # — only meaningful for frames not retransmitted.
            if entry.transmissions == 1:
                self.rtt_samples.append(now - entry.first_sent_at)
        if freed:
            self.acked_seq = max(self.acked_seq, ack_seq)
            self.consecutive_timeouts = 0
            self.degraded_reported = False
        return freed


@dataclass(slots=True)
class PendingMessage:
    """Reassembly state for a fragmented incoming message."""

    total_fragments: int
    fragments: Dict[int, Tuple[Any, int]] = field(default_factory=dict)

    @property
    def complete(self) -> bool:
        return len(self.fragments) == self.total_fragments

    def assemble(self) -> Tuple[Any, int]:
        """Return (payload, total_bytes) of the completed message.

        Byte payloads are concatenated; object payloads of single-fragment
        messages pass through unchanged.
        """
        total_bytes = sum(size for _p, size in self.fragments.values())
        parts = [self.fragments[i][0] for i in range(self.total_fragments)]
        if all(isinstance(p, (bytes, bytearray)) for p in parts):
            return b"".join(bytes(p) for p in parts), total_bytes
        # Opaque payload: the object rides whole on the first fragment,
        # later fragments carry only their wire length.
        opaque = [p for p in parts if not isinstance(p, (bytes, bytearray))
                  or p]
        if len(opaque) == 1:
            return opaque[0], total_bytes
        return parts, total_bytes


@dataclass
class ReceiveConnectionState:
    """Receiver half of a connection."""

    connection_id: int
    remote_host: int
    remote_connection_id: int
    expected_seq: int = 0
    #: Out-of-order frames waiting for the gap to fill: seq -> frame.
    reorder_buffer: Dict[int, LtlFrame] = field(default_factory=dict)
    #: message_id -> PendingMessage.
    reassembly: Dict[int, PendingMessage] = field(default_factory=dict)
    # statistics
    frames_received: int = 0
    duplicates: int = 0
    out_of_order: int = 0
    nacks_sent: int = 0


class ConnectionTable:
    """A dense table of connection states, keyed by connection id.

    Matches the hardware's statically allocated tables: ids are allocated
    from a fixed-size pool and persist until deallocated.
    """

    def __init__(self, capacity: int = 1024):
        self.capacity = capacity
        self._entries: Dict[int, Any] = {}
        self._free: List[int] = list(range(capacity - 1, -1, -1))

    def allocate(self) -> int:
        if not self._free:
            raise ConnectionError_("connection table full")
        return self._free.pop()

    def install(self, connection_id: int, state: Any) -> None:
        if connection_id in self._entries:
            raise ConnectionError_(
                f"connection {connection_id} already installed")
        if not 0 <= connection_id < self.capacity:
            raise ConnectionError_(
                f"connection id {connection_id} out of range")
        if connection_id in self._free:
            self._free.remove(connection_id)
        self._entries[connection_id] = state

    def lookup(self, connection_id: int) -> Any:
        state = self._entries.get(connection_id)
        if state is None:
            raise ConnectionError_(f"unknown connection {connection_id}")
        return state

    def deallocate(self, connection_id: int) -> None:
        if connection_id not in self._entries:
            raise ConnectionError_(f"unknown connection {connection_id}")
        del self._entries[connection_id]
        self._free.append(connection_id)

    def __contains__(self, connection_id: int) -> bool:
        return connection_id in self._entries

    def __len__(self) -> int:
        return len(self._entries)

    def values(self):
        return self._entries.values()
