"""Between-window differential: the packet-granular port against the
per-event reference (:mod:`tests.net.reference_port`) when a program
acts between bounded runs.

Random one-port programs schedule enqueues, pauses and resumes on a grid
of instants a few packet times apart and run in bounded windows that
stop on those instants, a stop sometimes repeating.  Between windows, at
the boundary instant, they act on the port directly or schedule the
action for that instant with ``call_later(0, ...)``, in either order.  A
packet launched in a window's last instant is final once the window
ends, as on the reference, whose kick ran inside the window; so is a
packet launched between windows once the next window dispatches its
first entry, as on the reference, whose kick drew before that entry.
Both ports must agree on every enqueue's accept or drop, every packet's
start, end and arrival, the arrival order, the occupancy after each
window's actions and the final ``PortStats``.

Limit of agreement: the port has a deliver target, so every launch
schedules its arrival and every run after it dispatches something.  A
launch that schedules nothing, followed by an unbounded run that finds
nothing to dispatch, stays undoable (the "Edge" case in the ``Port``
docstring), where the reference's kick would have run in that run.
"""

import random

from repro.net.packet import TrafficClass
from repro.sim import Environment

from .test_links_switch import make_packet
from .test_port_differential import RecordingPort, RecordingReference

#: Instants the programs act and stop on: a few packet times apart.
GRID = [k * 20e-9 for k in range(10)]
BE, LOSSLESS = TrafficClass.BEST_EFFORT, TrafficClass.LOSSLESS

#: A best-effort packet launched in the window's last instant, then a
#: lossless one enqueued after the window: the first stays on the wire.
LAUNCH_AT_STOP = ([(GRID[1], ("enqueue", BE))],
                  [(GRID[1], [(False, ("enqueue", LOSSLESS))])])

#: A best-effort packet launched between windows, then a lossless one
#: enqueued in the next window's first entry at that instant: the first
#: stays on the wire.
LAUNCH_BEFORE_WINDOW = ([], [
    (GRID[1], [(False, ("enqueue", BE)), (True, ("enqueue", LOSSLESS))]),
    (GRID[2], [])])

#: The same, with the next window stopping at the launch instant.
LAUNCH_BEFORE_REPEATED_STOP = ([], [
    (GRID[1], [(False, ("enqueue", BE))]),
    (GRID[1], [(False, ("enqueue", LOSSLESS))])])

FIXED = [LAUNCH_AT_STOP, LAUNCH_BEFORE_WINDOW, LAUNCH_BEFORE_REPEATED_STOP]


def draw_program(seed):
    """Scheduled actions ``[(instant, action)]`` and windows ``[(stop,
    [(deferred, action)] after it)]``: a deferred action is scheduled
    for the boundary instant, the others run at once."""
    rng = random.Random(seed)

    def action():
        roll = rng.random()
        kind = "enqueue" if roll < 0.7 else \
            "pause" if roll < 0.85 else "resume"
        return kind, rng.choice(TrafficClass.ALL)

    scheduled = [(rng.choice(GRID), action())
                 for _ in range(rng.randint(1, 16))]
    stops = sorted(rng.choices(GRID, k=rng.randint(1, 5)))
    return scheduled, [
        (stop, [(rng.random() < 0.5, action())
                for _ in range(rng.randint(0, 3))])
        for stop in stops]


def run_program(port_cls, program):
    scheduled, windows = program
    env = Environment()
    arrivals, accepted, occupancy = [], [], []
    port = port_cls(env, "p", rate_bps=40e9, deliver=lambda packet:
                    arrivals.append((env.now, packet.payload)))
    port.log = {}
    # Between-window actions that found a packet started at their
    # instant: run at once after a window, or deferred into the next.
    seen = {False: 0, True: 0}

    def act(kind, tc):
        if kind == "enqueue":
            packet = make_packet(tc=tc)
            packet.payload = len(accepted)
            accepted.append(port.enqueue(packet))
        else:
            getattr(port, kind)(tc)

    def between(deferred, kind, tc):
        seen[deferred] += any(times[0] == env.now
                              for times in port.log.values())
        act(kind, tc)

    for when, action in scheduled:
        env.call_at(when, act, *action)
    for stop, actions in windows:
        env.run(until=stop)
        for deferred, action in actions:
            if deferred:
                env.call_later(0.0, between, deferred, *action)
            else:
                between(deferred, *action)
        occupancy.append(port.queued_bytes_total)
    env.run()
    return seen, {
        "accepted": accepted, "times": port.log, "arrivals": arrivals,
        "occupancy": occupancy, "stats": dict(vars(port.stats))}


def test_fixed_programs_keep_the_first_packet_on_the_wire():
    for program in FIXED:
        result = run_program(RecordingPort, program)[1]
        assert result == run_program(RecordingReference, program)[1]
        assert [payload for _, payload in result["arrivals"]] == [0, 1]


def test_between_window_actions_match_reference():
    seen = {False: 0, True: 0}
    for program in [draw_program(s) for s in range(600)]:
        found, result = run_program(RecordingPort, program)
        assert result == run_program(RecordingReference, program)[1]
        for deferred in seen:
            seen[deferred] += found[deferred]
    # Actions, at once and deferred, find packets started at their
    # instant: launched in a window's last instant or between windows.
    assert seen[False] > 100 and seen[True] > 100
