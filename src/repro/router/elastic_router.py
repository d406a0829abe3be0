"""The Elastic Router: an input-buffered, credit-flow-controlled crossbar.

Architecture per the paper (Section V-B):

* N ports x V virtual channels; any port may send to any port, including
  itself (U-turns are supported).
* Input-buffered: flits wait in per-(input-port, VC) queues; credits (one
  per flit) are granted by the input port's :class:`CreditPool`, which may
  be *static* (fixed per VC) or *elastic* (shared pool).
* Wormhole switching with per-VC output locking: once a head flit claims
  an (output, VC) pair, body/tail flits of the same message hold it until
  the tail passes, so messages never interleave within a VC.
* One flit per input port and one flit per output port per cycle;
  arbitration is round-robin per output for fairness.

In the production image the ER runs at 175 MHz (Fig. 5); the default
frequency matches.

Two paths produce the same cycle-accurate result:

* **Stream.** While only one input port holds traffic nothing contends:
  every flit is admitted and switched in the cycle it reaches the front,
  so each message costs one kernel event, at its tail flit's exit.  Its
  head exits one cycle after ``max(send time, previous tail)``, and the
  tail time adds the cycle once per flit, so the floats equal the
  per-cycle clock's.  The exit is armed on the edge before the tail
  (one more event for a multi-flit message), where the per-cycle clock
  schedules the tick that delivers the message, so the exit takes that
  tick's place among same-instant events.  At the exit the message's
  cycles, flits, peak occupancy (1) and round-robin pointer are applied
  in closed form; ``RouterStats`` therefore covers a streamed message
  from its exit on.
* **Per-cycle clock.** When a second input port sends mid-stream, the
  stream is handed over: flits on cycle edges strictly before now count
  as switched (wormhole lock and reassembly list set), the rest of the
  message and the queued messages go to the pending queues, the stale
  exit events are voided, and ``_tick`` restarts on the stream's own
  edge grid.  The clock runs one event per cycle, with explicit buffers and
  round-robin arbitration, until the router is idle; the next send
  starts a new stream.

Latch rule, on both paths: a flit sent at instant T is admitted no
earlier than the first cycle edge strictly after T, so a send that lands
exactly on a running clock's edge does not depend on the order of
same-instant dispatch.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable, Deque, Dict, List, Optional, Tuple

from ..sim import Environment
from ..trace.stages import Stage
from .credits import CreditPool, make_credit_pool
from .flit import Flit, Message, packetize

#: Clock frequency of the ER in the production-deployed image (Fig. 5).
DEFAULT_FREQ_HZ = 175e6

# Hoisted Stage members for the per-flit tap sites.
_STAGE_ER_INGRESS = Stage.ER_INGRESS
_STAGE_ER_SWITCH = Stage.ER_SWITCH


@dataclass
class RouterStats:
    """Counters aggregated over a router's lifetime."""

    messages_injected: int = 0
    messages_delivered: int = 0
    flits_switched: int = 0
    cycles: int = 0
    injection_stall_cycles: int = 0
    peak_buffer_occupancy: int = 0
    per_vc_delivered: Dict[int, int] = field(default_factory=dict)


class ElasticRouter:
    """A single ER instance.

    Endpoints attach a delivery callback per port via :meth:`set_endpoint`
    and inject messages with :meth:`send`, which can call the sender
    back once the last flit has been accepted into the input buffer.
    """

    def __init__(self, env: Environment, name: str = "er",
                 num_ports: int = 4, num_vcs: int = 2,
                 flit_bytes: int = 32, freq_hz: float = DEFAULT_FREQ_HZ,
                 credit_policy: str = "elastic",
                 credits_per_port: int = 16, reserved_per_vc: int = 1):
        if num_ports < 1:
            raise ValueError("router needs at least one port")
        if num_vcs < 1:
            raise ValueError("router needs at least one VC")
        if flit_bytes <= 0:
            raise ValueError("flit size must be positive")
        self.env = env
        self.name = name
        self.num_ports = num_ports
        self.num_vcs = num_vcs
        self.flit_bytes = flit_bytes
        self.cycle_time = 1.0 / freq_hz
        self.credit_policy = credit_policy
        self.stats = RouterStats()

        self._credits: List[CreditPool] = [
            make_credit_pool(credit_policy, credits_per_port, num_vcs,
                             reserved_per_vc)
            for _ in range(num_ports)]
        # Input buffers: [port][vc] -> deque of flits.
        self._buffers: List[List[Deque[Flit]]] = [
            [deque() for _ in range(num_vcs)] for _ in range(num_ports)]
        # Pending injections: [port] -> deque of (flit, on_sent).
        self._pending: List[Deque[Tuple[Flit, Optional[Callable]]]] = [
            deque() for _ in range(num_ports)]
        # Output (port, vc) -> (in_port, vc) holding the wormhole lock.
        self._output_locks: Dict[Tuple[int, int],
                                 Optional[Tuple[int, int]]] = {}
        # Reassembly: (out_port, vc) -> list of flits received so far.
        self._reassembly: Dict[Tuple[int, int], List[Flit]] = {}
        self._endpoints: List[Optional[Callable[[Message], None]]] = \
            [None] * num_ports
        # Round-robin arbitration pointer per output port.
        self._rr: List[int] = [0] * num_ports
        # True while a _tick is scheduled: the per-cycle clock runs from
        # a handover until no flit is pending or buffered.
        self._running = False
        # Running flit count across all input buffers, so _step need not
        # re-sum every queue per cycle.
        self._occupancy = 0
        # The stream: messages of the one active input port, in exit
        # order, as (message, flits, on_sent, head_exit, tail_exit).
        self._stream: Deque[Tuple[Message, int, Optional[Callable],
                                  float, float]] = deque()
        # Bumped by a handover; exit events carrying an older epoch are
        # void.
        self._epoch = 0

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def set_endpoint(self, port: int,
                     deliver: Callable[[Message], None]) -> None:
        """Attach the consumer of messages arriving at ``port``."""
        self._check_port(port)
        self._endpoints[port] = deliver

    def send(self, src_port: int, dst_port: int, payload: Any,
             length_bytes: int, vc: int = 0, trace: Any = None,
             on_sent: Optional[Callable[[], None]] = None) -> Message:
        """Inject a message and return it.  ``on_sent()``, if given, runs
        once the last flit has entered the input buffer (i.e. the sender
        may reuse its staging space), as an entry of its own at that
        instant.  ``trace`` is an optional
        :class:`~repro.trace.TraceContext`: ``er.ingress`` marks the
        instant the head flit wins a buffer credit, ``er.switch`` the
        instant the tail flit exits the crossbar."""
        self._check_port(src_port)
        self._check_port(dst_port)
        if not 0 <= vc < self.num_vcs:
            raise ValueError(f"vc {vc} out of range")
        now = self.env.now
        message = Message(src_port=src_port, dst_port=dst_port, vc=vc,
                          payload=payload, length_bytes=length_bytes,
                          injected_at=now, trace=trace)
        self.stats.messages_injected += 1
        stream = self._stream
        if not self._running and (not stream
                                  or src_port == stream[0][0].src_port):
            self._stream_message(message, on_sent,
                                 stream[-1][4] if stream else now)
            return message
        if stream:
            self._handover()
        pending = self._pending[src_port]
        for flit in packetize(message, self.flit_bytes):
            pending.append((flit, on_sent))
        return message

    # ------------------------------------------------------------------
    # Stream: one event per message while one input port is active
    # ------------------------------------------------------------------
    def _stream_message(self, message: Message,
                        on_sent: Optional[Callable[[], None]],
                        start: float) -> None:
        """Queue ``message`` behind the stream, whose last tail exits at
        ``start`` (or the port is idle and ``start`` is now)."""
        env = self.env
        cycle = self.cycle_time
        flits = -(-message.length_bytes // self.flit_bytes)
        head = tail = start + cycle
        edge = start  # the cycle edge before the tail's
        for _ in range(flits - 1):
            edge = tail
            tail += cycle
        self._stream.append((message, flits, on_sent, head, tail))
        # The per-cycle clock schedules the tick that delivers a message
        # on the edge before it.  Arming the exit there too gives it the
        # same place among same-instant events on both paths.
        if edge > env.now:
            env.call_at(edge, env.call_at, tail, self._exit, self._epoch)
        else:
            env.call_at(tail, self._exit, self._epoch)

    def _exit(self, epoch: int) -> None:
        """A streamed message's tail flit exits the crossbar."""
        if epoch != self._epoch:
            return  # voided by a handover
        message, flits, on_sent, head, _tail = self._stream.popleft()
        self._streamed(message, flits, head)
        if on_sent is not None:
            self.env.call_later(0.0, on_sent)
        self._deliver(message)

    def _streamed(self, message: Message, flits: int, head: float) -> None:
        """Account ``flits`` uncontended cycles of ``message``, whose head
        flit was admitted and switched at ``head``."""
        stats = self.stats
        stats.cycles += flits
        stats.flits_switched += flits
        if stats.peak_buffer_occupancy < 1:
            stats.peak_buffer_occupancy = 1
        self._rr[message.dst_port] = \
            message.src_port * self.num_vcs + message.vc + 1
        if message.trace is not None:
            message.trace.insert(_STAGE_ER_INGRESS, head)

    def _handover(self) -> None:
        """A second input port sends mid-stream: rebuild the per-cycle
        state at this instant and restart the clock on the stream's edge
        grid."""
        now = self.env.now
        cycle = self.cycle_time
        stream = self._stream
        self._epoch += 1
        message, _flits, on_sent, head, _tail = stream.popleft()
        pending = self._pending[message.src_port]
        flits = packetize(message, self.flit_bytes)
        # Flits on edges strictly before now have crossed; the tail edge
        # is not before now, or the exit would have fired.
        edge, switched = head, 0
        while edge < now:
            edge += cycle
            switched += 1
        if switched:
            self._streamed(message, switched, head)
            vc = message.vc
            self._output_locks[(message.dst_port, vc)] = \
                (message.src_port, vc)
            self._reassembly[(message.dst_port, vc)] = flits[:switched]
        pending.extend((flit, on_sent) for flit in flits[switched:])
        for message, _flits, on_sent, _head, _tail in stream:
            pending.extend((flit, on_sent)
                           for flit in packetize(message, self.flit_bytes))
        stream.clear()
        self._running = True
        self.env.call_at(edge, self._tick)

    # ------------------------------------------------------------------
    # Per-cycle clock: the contended path
    # ------------------------------------------------------------------
    def _tick(self) -> None:
        """One router cycle; stop the clock once the router is idle."""
        self._step()
        if self._occupancy or any(self._pending):
            self.env.call_later(self.cycle_time, self._tick)
        else:
            self._running = False

    def _step(self) -> None:
        """One router cycle: buffer injections, then switch allocation."""
        self.stats.cycles += 1
        self._admit_pending()
        # Occupancy is sampled between admission and switch allocation —
        # the instant buffers are fullest within a cycle.
        if self._occupancy > self.stats.peak_buffer_occupancy:
            self.stats.peak_buffer_occupancy = self._occupancy
        self._allocate_and_switch()

    def _admit_pending(self) -> None:
        """Move at most one pending flit per port into its input buffer."""
        now = self.env.now
        for port in range(self.num_ports):
            pending = self._pending[port]
            if not pending:
                continue
            flit, on_sent = pending[0]
            if flit.message.injected_at >= now:
                continue  # latch rule: sent this instant
            if self._credits[port].try_acquire(flit.vc):
                pending.popleft()
                self._buffers[port][flit.vc].append(flit)
                self._occupancy += 1
                if flit.is_head and flit.message.trace is not None:
                    # Pending wait + credit stalls up to buffer entry.
                    flit.message.trace.tap(_STAGE_ER_INGRESS, now)
                if flit.is_tail and on_sent is not None:
                    self.env.call_later(0.0, on_sent)
            else:
                self.stats.injection_stall_cycles += 1

    def _candidates(self) -> Dict[int, List[Tuple[int, int]]]:
        """(in_port, vc) pairs whose head-of-queue flit may proceed,
        grouped by requested output port.

        One pass over the input queues instead of one per output: safe
        because a move for an earlier output can only invalidate the
        head of a queue whose input port is already in ``inputs_used``
        (filtered below) and only touches that output's own lock.
        """
        wants: Dict[int, List[Tuple[int, int]]] = {}
        locks = self._output_locks
        for in_port in range(self.num_ports):
            for vc, queue in enumerate(self._buffers[in_port]):
                if not queue:
                    continue
                flit = queue[0]
                out_port = flit.dst_port
                lock = locks.get((out_port, vc))
                if (lock is None) if flit.is_head else \
                        (lock == (in_port, vc)):
                    wants.setdefault(out_port, []).append((in_port, vc))
        return wants

    def _allocate_and_switch(self) -> None:
        if not self._occupancy:
            return
        wants = self._candidates()
        inputs_used = set()
        for out_port in sorted(wants):
            candidates = [c for c in wants[out_port]
                          if c[0] not in inputs_used]
            if not candidates:
                continue
            # Round-robin: rotate candidate order by the per-output pointer.
            pointer = self._rr[out_port] % (self.num_ports * self.num_vcs)
            candidates.sort(key=lambda c: (
                (c[0] * self.num_vcs + c[1] - pointer)
                % (self.num_ports * self.num_vcs)))
            in_port, vc = candidates[0]
            self._rr[out_port] = (in_port * self.num_vcs + vc + 1)
            inputs_used.add(in_port)
            self._move_flit(in_port, vc, out_port)

    def _move_flit(self, in_port: int, vc: int, out_port: int) -> None:
        flit = self._buffers[in_port][vc].popleft()
        self._occupancy -= 1
        self._credits[in_port].release(vc)
        self.stats.flits_switched += 1
        if flit.is_head:
            self._output_locks[(out_port, vc)] = (in_port, vc)
        self._reassembly.setdefault((out_port, vc), []).append(flit)
        if flit.is_tail:
            self._output_locks[(out_port, vc)] = None
            flits = self._reassembly.pop((out_port, vc))
            message = flits[0].message
            if any(f.message is not message for f in flits):
                raise RuntimeError(
                    f"{self.name}: interleaved messages on output "
                    f"({out_port}, vc {vc})")
            self._deliver(message)

    def _deliver(self, message: Message) -> None:
        """The tail flit exited: hand the message to its output port."""
        now = self.env.now
        message.delivered_at = now
        if message.trace is not None:
            # Crossbar residency: buffer entry through tail-flit exit.
            message.trace.tap(_STAGE_ER_SWITCH, now)
        vc = message.vc
        self.stats.messages_delivered += 1
        self.stats.per_vc_delivered[vc] = \
            self.stats.per_vc_delivered.get(vc, 0) + 1
        endpoint = self._endpoints[message.dst_port]
        if endpoint is not None:
            endpoint(message)

    def _check_port(self, port: int) -> None:
        if not 0 <= port < self.num_ports:
            raise ValueError(
                f"port {port} out of range for {self.num_ports}-port router")
