"""The LTL protocol engine (paper §V-A, Fig. 9).

One engine lives in each FPGA shell.  Its blocks map to Fig. 9:

* **Packetizer and Transmit Buffer** — :meth:`LtlEngine.send_message`
  fragments messages into MTU-sized DATA frames onto a per-connection
  send frame queue.
* **Send/Receive Connection Tables** — :mod:`repro.ltl.connection`.
* **Unack'd frame store + Ack Receiver** — outgoing frames are buffered
  and tracked until cumulatively ACKed; timeouts (default 50 µs,
  configurable, exactly as the paper states) trigger retransmission, and
  repeated timeouts identify failing nodes.
* **Ack Generation** — every in-order DATA frame is cumulatively ACKed;
  detected reordering triggers a NACK requesting timely retransmission of
  the missing range without waiting for a timeout.
* **Congestion control** — ECN-marked arrivals piggyback a DC-QCN
  congestion flag on the ACK; the sender's per-connection
  :class:`~repro.net.dcqcn.DcqcnRateController` paces transmission.

The paper's bandwidth limiting "via random early drops" is not modeled.

The engine is transport-agnostic: anything implementing
``send_frame(dst_host, frame)`` and calling
:meth:`LtlEngine.receive_frame` works — the FPGA shell supplies the real
40G MAC + fabric transport, unit tests supply fault-injecting loopbacks.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import count
from typing import Any, Callable, Dict, List, Optional, Tuple

from ..net.dcqcn import CnpGenerator, DcqcnConfig, DcqcnRateController
from ..sim import Environment
from .connection import (
    ConnectionError_,
    ConnectionTable,
    PendingMessage,
    ReceiveConnectionState,
    SendConnectionState,
    UnackedFrame,
)
from .frames import (
    LtlFrame,
    make_ack,
    make_data_frame,
    make_nack,
    nack_range,
)
from ..trace.stages import Stage

# Hoisted Stage members for the per-frame tap sites.
_STAGE_LTL_TX = Stage.LTL_TX
_STAGE_LTL_RETX = Stage.LTL_RETX
_STAGE_LTL_RX = Stage.LTL_RX


@dataclass
class LtlConfig:
    """Engine tunables; defaults match the production deployment."""

    #: Max DATA payload per frame (fits in a 1500 B MTU under UDP/IP/LTL).
    mtu_payload_bytes: int = 1408
    #: Max unacknowledged frames per connection.
    window_frames: int = 64
    #: Retransmission timeout — "currently set to 50 usec".
    retransmit_timeout: float = 50e-6
    #: Consecutive timeouts before the connection is declared failed
    #: ("timeouts can also be used to identify failing nodes quickly").
    max_consecutive_timeouts: int = 8
    #: LTL transmit-path processing (packetize + connection lookup).
    tx_latency: float = 0.45e-6
    #: LTL receive-path processing including ACK generation.
    rx_latency: float = 0.53e-6
    #: Processing of a received ACK (ack receiver block).
    ack_rx_latency: float = 0.18e-6
    #: Scan period of the retransmission timer wheel.
    timer_period: float = 10e-6
    #: DC-QCN configuration shared by all connections.
    dcqcn: DcqcnConfig = field(default_factory=DcqcnConfig)
    #: Enable DC-QCN pacing of the send path.
    congestion_control: bool = True
    #: Initial interval between reconnect probes of a failed connection
    #: (doubles per attempt).
    reconnect_backoff: float = 200e-6
    #: Cap on the reconnect probe interval.
    reconnect_backoff_max: float = 5e-3
    #: Consecutive timeouts at which ``on_connection_degraded`` fires —
    #: the gray-failure early-warning.  ``None`` derives it from
    #: ``max_consecutive_timeouts``.
    degraded_timeouts: Optional[int] = None
    #: Cap on buffered out-of-order frames per receive connection.
    reorder_buffer_frames: int = 256


@dataclass
class LtlStats:
    """Aggregate engine statistics."""

    messages_sent: int = 0
    messages_delivered: int = 0
    frames_sent: int = 0
    frames_received: int = 0
    acks_sent: int = 0
    acks_received: int = 0
    nacks_sent: int = 0
    nacks_received: int = 0
    retransmissions: int = 0
    timeouts: int = 0
    duplicates_dropped: int = 0
    connections_failed: int = 0
    connections_recovered: int = 0
    corrupt_dropped: int = 0
    reconnect_probes: int = 0
    reorder_drops: int = 0


class LtlEngine:
    """One FPGA's Lightweight Transport Layer endpoint."""

    def __init__(self, env: Environment, host_index: int,
                 transport: Optional[Any] = None,
                 config: Optional[LtlConfig] = None,
                 name: Optional[str] = None):
        self.env = env
        self.host_index = host_index
        self.transport = transport
        self.config = config or LtlConfig()
        self.name = name or f"ltl-{host_index}"
        self.stats = LtlStats()
        self.send_table = ConnectionTable()
        self.recv_table = ConnectionTable()
        self._message_ids = count()
        #: Called with (connection_id, payload, length_bytes) on delivery.
        self.on_message: Optional[
            Callable[[int, Any, int], None]] = None
        #: Called with (connection_id, remote_host) on connection failure.
        self.on_connection_failed: Optional[
            Callable[[int, int], None]] = None
        #: Called with (connection_id, remote_host) when a connection looks
        #: gray — repeated timeouts short of outright failure.
        self.on_connection_degraded: Optional[
            Callable[[int, int], None]] = None
        #: Called with (connection_id, remote_host) when a failed
        #: connection's reconnect probe is ACKed and traffic resumes.
        self.on_connection_recovered: Optional[
            Callable[[int, int], None]] = None
        self._cnp = CnpGenerator(self.config.dcqcn)
        # Send pump (see _kick): parked until there is something to send.
        self._pump_parked = True
        self._pump_ready: List[SendConnectionState] = []
        self._pump_idx = 0
        self._pump_frame: Optional[Tuple[SendConnectionState,
                                         LtlFrame]] = None
        #: Set while the retransmit timer is parked with nothing unacked;
        #: :meth:`_transmit` restarts the periodic scan.
        self._timer_parked = True
        self._nack_outstanding: Dict[int, int] = {}

    # ------------------------------------------------------------------
    # Connection management (static allocation, per the paper)
    # ------------------------------------------------------------------
    def open_send_connection(self, remote_host: int,
                             remote_connection_id: int,
                             vc: int = 0) -> int:
        """Allocate a send-table entry toward a remote receive entry."""
        connection_id = self.send_table.allocate()
        state = SendConnectionState(
            connection_id=connection_id, remote_host=remote_host,
            remote_connection_id=remote_connection_id, vc=vc,
            dcqcn=DcqcnRateController(self.config.dcqcn))
        self.send_table.install(connection_id, state)
        return connection_id

    def close_send_connection(self, connection_id: int) -> None:
        self.send_table.deallocate(connection_id)

    # ------------------------------------------------------------------
    # Send path
    # ------------------------------------------------------------------
    def send_message(self, connection_id: int, payload: Any,
                     length_bytes: int, trace: Any = None) -> int:
        """Fragment and queue a message; returns its message id.

        ``trace`` (a :class:`~repro.trace.TraceContext`) rides every DATA
        frame as simulation metadata: ``ltl.tx`` is tapped at first
        transmit, ``ltl.rx`` at reassembled delivery, and retransmission
        wait is isolated into ``ltl.retx`` (see :meth:`_transmit`).
        """
        state: SendConnectionState = self.send_table.lookup(connection_id)
        if state.failed:
            raise RuntimeError(
                f"connection {connection_id} has failed; reprovision it")
        message_id = next(self._message_ids)
        mtu = self.config.mtu_payload_bytes
        total_fragments = max(1, -(-length_bytes // mtu))
        remaining = length_bytes
        for fragment in range(total_fragments):
            frag_bytes = min(mtu, remaining)
            remaining -= frag_bytes
            if isinstance(payload, (bytes, bytearray)):
                frag_payload = bytes(
                    payload[fragment * mtu: fragment * mtu + frag_bytes])
            else:
                # Opaque payload: carried whole on the first fragment.
                frag_payload = payload if fragment == 0 else b""
            frame = make_data_frame(
                connection_id=state.remote_connection_id,
                seq=state.next_seq, message_id=message_id,
                fragment=fragment, total_fragments=total_fragments,
                payload=frag_payload, payload_bytes=frag_bytes)
            frame.trace = trace
            state.next_seq += 1
            state.send_queue.append(frame)
        self.stats.messages_sent += 1
        self._kick()
        return message_id

    # The send pump is a chain of call_later callbacks, one scheduled entry
    # per frame.  It parks when nothing is sendable; a kick (new message,
    # or an ACK that opens the window) starts it again.  A running pump
    # ignores kicks: it re-snapshots the sendable connections whenever
    # it finishes a pass.
    def _kick(self) -> None:
        if self._pump_parked:
            self._pump_parked = False
            self._pump_cycle()

    def _sendable(self) -> List[SendConnectionState]:
        return [
            state for state in self.send_table.values()
            if state.send_queue and not state.failed
            and state.in_flight < self.config.window_frames]

    def _pump_cycle(self) -> None:
        """Pump loop top: snapshot sendable connections or park."""
        ready = self._sendable()
        if not ready:
            self._pump_parked = True
            return
        self._pump_ready = ready
        self._pump_idx = 0
        self._pump_advance()

    def _pump_advance(self) -> None:
        """Drain the snapshot from the current index, pacing by DC-QCN
        rate and the tx pipeline; one scheduled hop per frame."""
        cfg = self.config
        env = self.env
        ready = self._pump_ready
        idx = self._pump_idx
        while idx < len(ready):
            state = ready[idx]
            if not state.send_queue or \
                    state.in_flight >= cfg.window_frames:
                idx += 1
                continue
            frame = state.send_queue.pop(0)
            pacing = 0.0
            if cfg.congestion_control:
                state.dcqcn.on_increase_timer(env.now)
                rate = state.dcqcn.current_rate
                if rate < state.dcqcn.config.line_rate_bps:
                    pacing = frame.wire_bytes * 8 / rate
            self._pump_idx = idx + 1
            self._pump_frame = (state, frame)
            env.call_later(max(cfg.tx_latency, pacing), self._pump_tx)
            return
        self._pump_cycle()

    def _pump_tx(self) -> None:
        state, frame = self._pump_frame
        self._pump_frame = None
        self._transmit(state, frame, retransmission=False)
        self._pump_advance()

    def _transmit(self, state: SendConnectionState, frame: LtlFrame,
                  retransmission: bool) -> None:
        now = self.env.now
        if self._timer_parked:
            # Restart the periodic retransmit scan.
            self._timer_parked = False
            self.env.call_later(self.config.timer_period, self._timer_tick)
        entry = state.unacked.get(frame.seq)
        trace = frame.trace
        if entry is None:
            entry = UnackedFrame(
                frame=frame, first_sent_at=now, last_sent_at=now)
            state.unacked[frame.seq] = entry
            if trace is not None:
                # First transmit: everything since the previous mark
                # (send-queue wait, tx pipeline, pacing) is LTL tx time.
                # Checkpoint the trail so a later retransmission can
                # erase the doomed traversal's downstream marks.  The
                # span is now in reliable custody: a downstream packet
                # drop is recoverable, so drop sites must not abandon it.
                trace.tap(_STAGE_LTL_TX, now)
                trace.protected = True
                entry.trace_checkpoint = trace.checkpoint()
        else:
            entry.last_sent_at = now
            entry.transmissions += 1
            if trace is not None:
                # Retransmission: discard the lost traversal's marks so
                # wire/switch hops are not double-counted, and attribute
                # the whole wait since the original transmit to the
                # retransmit bucket.
                trace.rewind(entry.trace_checkpoint)
                trace.tap(_STAGE_LTL_RETX, now)
        state.frames_sent += 1
        self.stats.frames_sent += 1
        if retransmission:
            state.retransmissions += 1
            self.stats.retransmissions += 1
        if self.transport is not None:
            self.transport.send_frame(state.remote_host, frame)

    # ------------------------------------------------------------------
    # Retransmission timer
    # ------------------------------------------------------------------
    @property
    def _degraded_threshold(self) -> int:
        cfg = self.config
        if cfg.degraded_timeouts is not None:
            return cfg.degraded_timeouts
        return max(2, cfg.max_consecutive_timeouts // 2)

    def _timer_has_work(self) -> bool:
        """True while any connection has unacked frames: a live one needs
        the retransmit scan, a failed one its reconnect probes."""
        return any(state.unacked for state in self.send_table.values())

    def _timer_tick(self) -> None:
        """One timer-wheel scan pass.

        The timer parks once nothing needs scanning instead of polling an
        idle engine every ``timer_period`` — on quiet engines that removes
        the dominant source of simulator events.
        """
        cfg = self.config
        now = self.env.now
        for state in list(self.send_table.values()):
            if state.failed:
                if state.unacked and now >= state.reconnect_at:
                    self._probe(state, now)
                continue
            if not state.unacked:
                continue
            # Mild exponential backoff (capped at 4x): congestion-
            # induced ACK delay must not trigger a retransmission
            # storm, but failure detection must stay fast.
            backoff = cfg.retransmit_timeout * (
                1 << min(state.consecutive_timeouts, 2))
            if state.oldest_unacked_age(now) < backoff:
                continue
            self.stats.timeouts += 1
            state.consecutive_timeouts += 1
            if state.consecutive_timeouts > cfg.max_consecutive_timeouts:
                self._fail_connection(state)
                continue
            if state.consecutive_timeouts >= self._degraded_threshold \
                    and not state.degraded_reported:
                state.degraded_reported = True
                if self.on_connection_degraded is not None:
                    self.on_connection_degraded(
                        state.connection_id, state.remote_host)
            # Conservative go-back-one: resend only the oldest frame;
            # the cumulative ACK it elicits re-opens the window.
            oldest = next(iter(state.unacked.values()))
            self._transmit(state, oldest.frame, retransmission=True)
        if self._timer_has_work():
            self.env.call_later(cfg.timer_period, self._timer_tick)
        else:
            self._timer_parked = True

    def _probe(self, state: SendConnectionState, now: float) -> None:
        """Reconnect attempt: resend the oldest frame of a failed
        connection.  An ACK freeing frames un-fails it (see
        :meth:`_handle_ack`)."""
        state.reconnect_attempts += 1
        self.stats.reconnect_probes += 1
        backoff = min(
            self.config.reconnect_backoff
            * (1 << min(state.reconnect_attempts - 1, 8)),
            self.config.reconnect_backoff_max)
        state.reconnect_at = now + backoff
        oldest = next(iter(state.unacked.values()))
        self._transmit(state, oldest.frame, retransmission=True)

    def _fail_connection(self, state: SendConnectionState) -> None:
        state.failed = True
        state.reconnect_attempts = 0
        state.reconnect_at = self.env.now + self.config.reconnect_backoff
        self.stats.connections_failed += 1
        if self.on_connection_failed is not None:
            self.on_connection_failed(state.connection_id, state.remote_host)

    # ------------------------------------------------------------------
    # Receive path
    # ------------------------------------------------------------------
    def receive_frame(self, frame: LtlFrame,
                      ecn_marked: bool = False) -> None:
        """Entry point from the transport (already past the MAC)."""
        if not frame.verify_checksum():
            # Corrupt on the wire: drop silently.  The sender's NACK/
            # timeout machinery retransmits; no corrupt payload is ever
            # delivered to a role.
            self.stats.corrupt_dropped += 1
            return
        # One deferred callback per frame — the rx pipeline latency —
        # instead of a full process per frame.
        if frame.is_ack:
            self.env.call_later(
                self.config.ack_rx_latency, self._handle_ack, frame)
        elif frame.is_nack:
            self.env.call_later(
                self.config.rx_latency, self._handle_nack, frame)
        else:
            self.env.call_later(
                self.config.rx_latency, self._handle_data, frame, ecn_marked)

    def _handle_ack(self, frame: LtlFrame) -> None:
        self.stats.acks_received += 1
        try:
            state: SendConnectionState = self.send_table.lookup(
                frame.connection_id)
        except ConnectionError_:
            return  # stale ACK for a deallocated connection
        freed = state.apply_ack(frame.ack_seq, self.env.now)
        if state.failed and freed:
            # A reconnect probe got through: the peer is back.
            state.failed = False
            state.reconnect_attempts = 0
            state.reconnect_at = 0.0
            state.recoveries += 1
            self.stats.connections_recovered += 1
            if self.on_connection_recovered is not None:
                self.on_connection_recovered(
                    state.connection_id, state.remote_host)
        if frame.congestion_flag and self.config.congestion_control:
            state.dcqcn.on_cnp(self.env.now)
        self._kick()

    def _handle_nack(self, frame: LtlFrame) -> None:
        self.stats.nacks_received += 1
        try:
            state: SendConnectionState = self.send_table.lookup(
                frame.connection_id)
        except ConnectionError_:
            return
        lo, hi = nack_range(frame)
        for seq in range(lo, hi + 1):
            entry = state.unacked.get(seq)
            if entry is not None:
                self._transmit(state, entry.frame, retransmission=True)

    def _handle_data(self, frame: LtlFrame, ecn_marked: bool) -> None:
        self.stats.frames_received += 1
        try:
            state: ReceiveConnectionState = self.recv_table.lookup(
                frame.connection_id)
        except ConnectionError_:
            return
        state.frames_received += 1
        congestion = False
        if ecn_marked:
            congestion = self._cnp.on_marked_packet(
                frame.connection_id, self.env.now)

        if frame.seq < state.expected_seq:
            # Duplicate (a retransmission that raced the original ACK).
            state.duplicates += 1
            self.stats.duplicates_dropped += 1
            self._send_ack(state, congestion)
            return
        if frame.seq > state.expected_seq:
            # Reordering detected: buffer and NACK the gap once.  The
            # buffer is bounded like the hardware's SRAM store; overflow
            # frames are dropped and re-fetched by NACK/timeout.
            state.out_of_order += 1
            if len(state.reorder_buffer) < self.config.reorder_buffer_frames:
                state.reorder_buffer[frame.seq] = frame
            else:
                self.stats.reorder_drops += 1
            already = self._nack_outstanding.get(state.connection_id, -1)
            if already < state.expected_seq:
                self._nack_outstanding[state.connection_id] = frame.seq - 1
                nack = make_nack(state.remote_connection_id,
                                 (state.expected_seq, frame.seq - 1))
                state.nacks_sent += 1
                self.stats.nacks_sent += 1
                if self.transport is not None:
                    self.transport.send_frame(state.remote_host, nack)
            return

        # In-order: accept, then drain any buffered successors.
        self._accept_data(state, frame)
        while state.expected_seq in state.reorder_buffer:
            self._accept_data(
                state, state.reorder_buffer.pop(state.expected_seq))
        self._nack_outstanding.pop(state.connection_id, None)
        self._send_ack(state, congestion)

    def _accept_data(self, state: ReceiveConnectionState,
                     frame: LtlFrame) -> None:
        state.expected_seq = frame.seq + 1
        if frame.total_fragments == 1:
            # Nothing to reassemble; what PendingMessage.assemble()
            # returns for one fragment.
            payload = frame.payload
            if isinstance(payload, bytearray):
                payload = bytes(payload)
            total_bytes = frame.payload_bytes
        else:
            pending = state.reassembly.get(frame.message_id)
            if pending is None:
                pending = state.reassembly[frame.message_id] = \
                    PendingMessage(total_fragments=frame.total_fragments)
            pending.fragments[frame.fragment] = (
                frame.payload, frame.payload_bytes)
            if not pending.complete:
                return
            del state.reassembly[frame.message_id]
            payload, total_bytes = pending.assemble()
        if frame.trace is not None:
            # Reassembled delivery: rx pipeline + reassembly wait.
            frame.trace.tap(_STAGE_LTL_RX, self.env.now)
        self.stats.messages_delivered += 1
        if self.on_message is not None:
            self.on_message(state.connection_id, payload, total_bytes)

    def _send_ack(self, state: ReceiveConnectionState,
                  congestion: bool) -> None:
        ack = make_ack(state.remote_connection_id,
                       state.expected_seq - 1, congestion=congestion)
        self.stats.acks_sent += 1
        if self.transport is not None:
            self.transport.send_frame(state.remote_host, ack)

    # ------------------------------------------------------------------
    def rtt_samples(self) -> List[float]:
        """All clean (non-retransmitted) RTT samples across connections."""
        samples: List[float] = []
        for state in self.send_table.values():
            samples.extend(state.rtt_samples)
        return samples


def connect_pair(a: LtlEngine, b: LtlEngine,
                 vc: int = 0) -> Tuple[int, int]:
    """Set up a bidirectional connection between two engines.

    Returns ``(conn_at_a, conn_at_b)`` — each engine's *send* connection id
    toward the other.  (Static control-plane setup; the paper's connections
    are statically allocated and persistent, so establishment cost is not
    modeled.)
    """
    recv_at_b = b.recv_table.allocate()
    send_at_a = a.open_send_connection(b.host_index, recv_at_b, vc=vc)
    b.recv_table.install(recv_at_b, ReceiveConnectionState(
        connection_id=recv_at_b, remote_host=a.host_index,
        remote_connection_id=send_at_a))

    recv_at_a = a.recv_table.allocate()
    send_at_b = b.open_send_connection(a.host_index, recv_at_a, vc=vc)
    a.recv_table.install(recv_at_a, ReceiveConnectionState(
        connection_id=recv_at_a, remote_host=b.host_index,
        remote_connection_id=send_at_b))
    return send_at_a, send_at_b
