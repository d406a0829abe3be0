"""Differential test: the packet-granular port against the per-event
reference (:mod:`tests.net.reference_port`).

Random programs drive one to three ports in one environment, each with
its own rate, propagation delay (zero or not) and queue capacity.  A
program is a list of bursts.  Each burst runs in one event; it enqueues
packets of any traffic class, pauses and resumes classes, and sets or
clears the transmit hook.  Bursts land on a grid of whole frame-times
(so starts, finishes and arrivals often coincide), at finer instants,
or at the same instant as the previous burst.  A delivered packet may
set off a burst of its own, on the port that delivered it, from the
arrival event.

Both ports must agree exactly on every enqueue's accept or drop, every
packet's serialization start and end and arrival time, the arrival
order at each sink, every hook call, the queue occupancy after each
burst, and the final ``PortStats``.

Two limits of the agreement shape the programs:

* Ports share a sink only when their propagation delays are equal, as
  the links into one switch where arrivals tie are of one kind.  The
  reference orders same-instant arrivals by their finish events, the
  port by their starts; the two agree when tied arrivals have tied
  finishes.  Rates, delays and instants are binary fractions of a
  second, so every sum is exact and that holds.  (When rounding alone
  makes two arrivals tie, the orders can differ.)
* An arrival never acts on another port: a launch there would draw its
  schedule entries before the arriving event's own later ones, where
  the reference's kick draws them after, so same-instant arrivals of
  two ports could swap.  Nothing in the fabric does that (a switch
  forwards one forwarding latency after the arrival).
"""

from itertools import count

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.net.links import Port
from repro.net.packet import TrafficClass
from repro.sim import Environment

from .reference_port import Port as ReferencePort
from .test_links_switch import make_packet

#: Binary fractions of a second (see the module docstring).
BYTE_TIME = 2.0 ** -30
RATES = (2.0 ** 33, 2.0 ** 32, 2.0 ** 30)  # one byte: 1, 2, 8 BYTE_TIME
#: Metres of fiber for 0, 2**-27 s and 2**-23 s of propagation.
DISTANCES = (0.0, 0.0, 2e8 * 2.0 ** -27, 2e8 * 2.0 ** -23)
HORIZON = 2.0 ** -7


class RecordingReference(ReferencePort):
    """The reference, recording when each packet starts and ends.

    One designed difference is taken out: a resume that finds its class
    empty schedules nothing on the packet-granular port, where the
    reference schedules a kick that has nothing to start.  That kick
    would hold its place among same-instant entries, so it is dropped
    here too.
    """

    def resume(self, tc):
        if self._paused[tc] and not self._queues[tc]:
            self._paused[tc] = False
        else:
            super().resume(tc)

    def _next_packet(self):
        item = super()._next_packet()
        if item is not None:
            self.log[item[0].payload] = [self.env.now]
        return item

    def _finish_tx(self, packet, size):
        self.log[packet.payload].append(self.env.now)
        super()._finish_tx(packet, size)


class RecordingPort(Port):
    """The packet-granular port, recording the same."""

    def _begin(self, packet, size, behind):
        end = super()._begin(packet, size, behind)
        self.log[packet.payload] = [self.env.now, end]
        return end

    def _undo(self):
        del self.log[self._wire_packet.payload]
        super()._undo()


burst_times = st.one_of(
    st.integers(0, 3000).map(lambda k: k * 64 * BYTE_TIME),
    st.integers(0, 1 << 28).map(lambda k: k * 2.0 ** -40),
    st.none())


@st.composite
def programs(draw):
    nports = draw(st.integers(1, 3))
    ports = [{
        "rate": draw(st.sampled_from(RATES)),
        "distance": draw(st.sampled_from(DISTANCES)),
        "capacity": draw(st.sampled_from((300, 2000, 1 << 20))),
    } for _ in range(nports)]
    port = st.integers(0, nports - 1)
    tc = st.sampled_from(TrafficClass.ALL)
    op = st.one_of(
        st.tuples(st.just("enqueue"), port, tc, st.integers(1, 1500)),
        st.tuples(st.just("enqueue"), port, tc, st.just(50)),
        st.tuples(st.just("pause"), port, tc),
        st.tuples(st.just("resume"), port, tc),
        st.tuples(st.just("hook"), port, st.booleans()))
    burst = st.lists(op, min_size=1, max_size=5)
    bursts = draw(st.lists(st.tuples(burst_times, burst), max_size=14))
    # A burst run, on its port, from the arrival of the n-th enqueued
    # packet.
    echoes = draw(st.dictionaries(st.integers(0, 20), burst, max_size=4))
    return ports, bursts, echoes


def run_ports(port_cls, program):
    specs, bursts, echoes = program
    env = Environment()
    log, arrivals, hooked, occupancy, accepted = {}, {}, [], [], []
    sinks = {spec["distance"]: [] for spec in specs}
    counter = count()

    def sink(index, source):
        def deliver(packet):
            ident = packet.payload
            arrivals[ident] = env.now
            sinks[index].append(ident)
            echo = echoes.get(ident)
            if echo is not None:
                run_burst(echo, source)
        return deliver

    ports = []
    for i, spec in enumerate(specs):
        port = port_cls(env, f"p{i}", rate_bps=spec["rate"],
                        distance_m=spec["distance"],
                        deliver=sink(spec["distance"], i),
                        queue_capacity_bytes=spec["capacity"])
        port.log = log
        ports.append(port)

    def hook(i):
        return lambda packet: hooked.append((i, env.now, packet.payload))

    def run_burst(ops, source=None):
        for op in ops:
            index = op[1] if source is None else source
            port = ports[index]
            if op[0] == "enqueue":
                packet = make_packet(payload_bytes=op[3], tc=op[2])
                packet.payload = next(counter)
                accepted.append((packet.payload, port.enqueue(packet)))
            elif op[0] == "pause":
                port.pause(op[2])
            elif op[0] == "resume":
                port.resume(op[2])
            else:
                port.on_transmit = hook(index) if op[2] else None
        occupancy.append((env.now, [
            [port.queued_bytes(tc) for tc in TrafficClass.ALL]
            + [port.queued_bytes_total] for port in ports]))

    at = 0.0
    for when, ops in bursts:
        at = at if when is None else when
        env.call_at(at, run_burst, ops)
    # Whatever is still paused is released at the end, so every
    # accepted packet leaves.
    env.call_at(HORIZON / 2, lambda: [port.resume(tc) for port in ports
                                      for tc in TrafficClass.ALL])
    env.run(until=HORIZON)
    return {
        "accepted": accepted,
        "times": {ident: times + [arrivals.get(ident)]
                  for ident, times in log.items()},
        "sinks": sinks,
        "hooked": hooked,
        "occupancy": occupancy,
        "stats": [dict(vars(port.stats)) for port in ports],
    }


ONE_PORT = [{"rate": RATES[0], "distance": 0.0, "capacity": 1 << 20}]


@settings(max_examples=300, deadline=None)
@given(programs())
# Two best-effort packets and a lossless one in one burst: strict
# priority over the batch undoes the first packet's launch.
@example(program=(ONE_PORT, [(0.0, [
    ("enqueue", 0, TrafficClass.BEST_EFFORT, 100),
    ("enqueue", 0, TrafficClass.BEST_EFFORT, 100),
    ("enqueue", 0, TrafficClass.LOSSLESS, 100)])], {}))
# The same lossless packet one event later queues behind.
@example(program=(ONE_PORT, [
    (0.0, [("enqueue", 0, TrafficClass.BEST_EFFORT, 100)]),
    (None, [("enqueue", 0, TrafficClass.LOSSLESS, 100)])], {}))
# Hooks set on two ports after their packets started: the finish events
# armed then must keep the order of the packets' starts.
@example(program=(
    [{"rate": RATES[0], "distance": 0.0, "capacity": 300},
     {"rate": RATES[0], "distance": DISTANCES[2], "capacity": 300},
     {"rate": RATES[0], "distance": 0.0, "capacity": 300}],
    [(None, [("enqueue", 1, 0, 1), ("enqueue", 0, 0, 1)]),
     (2.0 ** -40, [("hook", 0, True), ("hook", 1, True)])],
    {}))
def test_port_matches_per_event_reference(program):
    reference = run_ports(RecordingReference, program)
    assert all(len(times) == 3 for times in reference["times"].values())
    assert run_ports(RecordingPort, program) == reference
