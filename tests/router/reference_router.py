"""Reference Elastic Router: one kernel event per 175 MHz cycle.

The oracle for :class:`repro.router.ElasticRouter`'s streamed and handed-
over paths.  Every cycle admits at most one pending flit per input port,
then switches at most one flit per input and per output port, choosing
round-robin among the (input, VC) pairs whose head flit may proceed
under the wormhole locks.  A flit sent at instant T is admitted no
earlier than the first cycle edge strictly after T (the latch rule).
A send completes with an event that succeeds when its tail flit is
admitted; ``on_sent`` runs in that event's dispatch.
"""

from collections import deque

from repro.router import RouterStats, make_credit_pool, packetize
from repro.router.flit import Message
from repro.trace.stages import Stage
from tests.sim.reference_events import Event


class ReferenceRouter:
    def __init__(self, env, name="er", num_ports=4, num_vcs=2,
                 flit_bytes=32, freq_hz=175e6, credit_policy="elastic",
                 credits_per_port=16, reserved_per_vc=1):
        self.env = env
        self.name = name
        self.num_ports = num_ports
        self.num_vcs = num_vcs
        self.flit_bytes = flit_bytes
        self.cycle_time = 1.0 / freq_hz
        self.stats = RouterStats()
        self._credits = [make_credit_pool(credit_policy, credits_per_port,
                                          num_vcs, reserved_per_vc)
                         for _ in range(num_ports)]
        self._buffers = [[deque() for _ in range(num_vcs)]
                         for _ in range(num_ports)]
        self._pending = [deque() for _ in range(num_ports)]
        self._output_locks = {}
        self._reassembly = {}
        self._endpoints = [None] * num_ports
        self._rr = [0] * num_ports
        self._running = False

    def set_endpoint(self, port, deliver):
        self._endpoints[port] = deliver

    def send(self, src_port, dst_port, payload, length_bytes, vc=0,
             trace=None, on_sent=None):
        message = Message(src_port=src_port, dst_port=dst_port, vc=vc,
                          payload=payload, length_bytes=length_bytes,
                          injected_at=self.env.now, trace=trace)
        done = Event(self.env)
        if on_sent is not None:
            done.callbacks.append(lambda _event: on_sent())
        for flit in packetize(message, self.flit_bytes):
            self._pending[src_port].append((flit, done))
        self.stats.messages_injected += 1
        if not self._running:
            self._running = True
            self.env.call_later(self.cycle_time, self._tick)
        return message

    def _tick(self):
        self.stats.cycles += 1
        self._admit_pending()
        occupancy = sum(len(q) for queues in self._buffers for q in queues)
        if occupancy > self.stats.peak_buffer_occupancy:
            self.stats.peak_buffer_occupancy = occupancy
        self._allocate_and_switch()
        if any(q for queues in self._buffers for q in queues) \
                or any(self._pending):
            self.env.call_later(self.cycle_time, self._tick)
        else:
            self._running = False

    def _admit_pending(self):
        for port in range(self.num_ports):
            pending = self._pending[port]
            if not pending:
                continue
            flit, done = pending[0]
            if flit.message.injected_at >= self.env.now:
                continue  # the latch rule
            if self._credits[port].try_acquire(flit.vc):
                pending.popleft()
                self._buffers[port][flit.vc].append(flit)
                if flit.is_head and flit.message.trace is not None:
                    flit.message.trace.tap(Stage.ER_INGRESS, self.env.now)
                if flit.is_tail and not done.triggered:
                    done.succeed()
            else:
                self.stats.injection_stall_cycles += 1

    def _allocate_and_switch(self):
        inputs_used = set()
        slots = self.num_ports * self.num_vcs
        for out_port in range(self.num_ports):
            candidates = []
            for in_port in range(self.num_ports):
                if in_port in inputs_used:
                    continue
                for vc, queue in enumerate(self._buffers[in_port]):
                    if not queue or queue[0].dst_port != out_port:
                        continue
                    lock = self._output_locks.get((out_port, vc))
                    if (lock is None) if queue[0].is_head \
                            else (lock == (in_port, vc)):
                        candidates.append((in_port, vc))
            if not candidates:
                continue
            pointer = self._rr[out_port] % slots
            candidates.sort(
                key=lambda c: (c[0] * self.num_vcs + c[1] - pointer) % slots)
            in_port, vc = candidates[0]
            self._rr[out_port] = in_port * self.num_vcs + vc + 1
            inputs_used.add(in_port)
            self._move_flit(in_port, vc, out_port)

    def _move_flit(self, in_port, vc, out_port):
        flit = self._buffers[in_port][vc].popleft()
        self._credits[in_port].release(vc)
        self.stats.flits_switched += 1
        if flit.is_head:
            self._output_locks[(out_port, vc)] = (in_port, vc)
        self._reassembly.setdefault((out_port, vc), []).append(flit)
        if flit.is_tail:
            self._output_locks[(out_port, vc)] = None
            self._deliver(out_port, vc,
                          self._reassembly.pop((out_port, vc)))

    def _deliver(self, out_port, vc, flits):
        message = flits[0].message
        assert all(f.message is message for f in flits), "interleaved"
        now = self.env.now
        message.delivered_at = now
        if message.trace is not None:
            message.trace.tap(Stage.ER_SWITCH, now)
        self.stats.messages_delivered += 1
        self.stats.per_vc_delivered[vc] = \
            self.stats.per_vc_delivered.get(vc, 0) + 1
        if self._endpoints[out_port] is not None:
            self._endpoints[out_port](message)
