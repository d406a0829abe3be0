"""Differential test: the streamed Elastic Router against the per-cycle
reference (:mod:`tests.router.reference_router`).

Random injection programs run on both routers: 1-5 ports, 1-3 VCs, both
credit policies, 1-400-B messages and trace contexts.  Sends
land at continuous times, at the same instant as the previous send, on a
clock's edge grid, from delivery callbacks, and from chained senders
that send again a whole number of cycles after ``on_sent``.  A single
router must match the reference in delivery order and times, ``on_sent``
order and times, every trace mark, every ``RouterStats`` field and the
round-robin pointers.

Ring and mesh networks compare the set of events at each instant instead
of their order: several routers dispatching at one instant may do so in
a different order when one of them streams.
"""

import dataclasses
from collections import defaultdict
from unittest import mock

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.router import DEFAULT_FREQ_HZ, ElasticRouter
from repro.sim import Environment
from repro.trace import TraceContext
from repro.trace.stages import Stage

from . import compose
from .reference_router import ReferenceRouter

CYCLE = 1.0 / DEFAULT_FREQ_HZ
#: Every program drains long before this; a router that is not idle by
#: then has lost a message or wedged an output lock.
HORIZON = 5000 * CYCLE


def grid(k):
    """The k-th edge of a clock started at time zero, stepped as the
    clock steps (one addition per cycle)."""
    t = 0.0
    for _ in range(k):
        t += CYCLE
    return t


#: When a fired send happens: a continuous time, an edge of the grid, or
#: ``None`` for the same instant as the previous send (zero gap).  Early
#: edges often coincide with the edges of a stream started at time zero.
send_times = st.one_of(
    st.floats(0.0, 300 * CYCLE, allow_nan=False),
    st.integers(0, 40).map(grid),
    st.none())


@st.composite
def router_programs(draw):
    ports = draw(st.integers(1, 5))
    vcs = draw(st.integers(1, 3))
    config = {
        "num_ports": ports, "num_vcs": vcs,
        "credit_policy": draw(st.sampled_from(("static", "elastic"))),
        "credits_per_port": draw(st.integers(vcs, 3 * vcs + 4)),
    }
    port, vc = st.integers(0, ports - 1), st.integers(0, vcs - 1)
    follow_up = st.fixed_dictionaries({
        "src": port, "dst": port, "vc": vc, "size": st.integers(1, 400),
        "traced": st.just(False), "tap": st.none(), "echo": st.none()})
    message = st.fixed_dictionaries({
        "src": port, "dst": port, "vc": vc, "size": st.integers(1, 400),
        "traced": st.booleans(),
        # A foreign tap on the span (a go-back-N duplicate, say).
        "tap": st.none() | st.floats(0.0, 400 * CYCLE),
        # A message the receiving endpoint sends on delivery.
        "echo": st.none() | follow_up})
    fired = draw(st.lists(st.tuples(send_times, message), max_size=12))
    chained = draw(st.lists(
        st.tuples(send_times.filter(lambda t: t is not None), port,
                  st.lists(st.tuples(message, st.integers(0, 3)),
                           min_size=1, max_size=5)),
        max_size=3))
    return config, fired, chained


def run_router(router_cls, program):
    config, fired, chained = program
    env = Environment()
    router = router_cls(env, **config)
    delivered, completed, contexts, echoes = [], [], {}, {}

    def submit(ident, spec, src=None, then=None):
        if spec["echo"] is not None:
            echoes[ident] = spec["echo"]

        def sent():
            completed.append((env.now, ident))
            if then is not None:
                then()

        router.send(spec["src"] if src is None else src, spec["dst"],
                    ident, spec["size"], vc=spec["vc"],
                    trace=contexts.get(ident), on_sent=sent)

    def endpoint(port):
        def on_message(message):
            delivered.append((env.now, port, message.payload))
            echo = echoes.pop(message.payload, None)
            if echo is not None:
                submit(("echo", message.payload), echo)
        return on_message

    for port in range(config["num_ports"]):
        router.set_endpoint(port, endpoint(port))

    # Every span exists, and every foreign tap is scheduled, before any
    # send: a foreign tap then precedes a router event at the same
    # instant on both paths.
    specs = [(("fired", i), spec) for i, (_t, spec) in enumerate(fired)]
    specs += [(("chained", i, j), spec)
              for i, (_t, _p, messages) in enumerate(chained)
              for j, (spec, _k) in enumerate(messages)]
    for ident, spec in specs:
        if spec["traced"]:
            contexts[ident] = TraceContext(0.0)
            if spec["tap"] is not None:
                env.call_at(spec["tap"], contexts[ident].tap,
                            Stage.LINK_WIRE, spec["tap"])

    at = 0.0
    for i, (when, spec) in enumerate(fired):
        at = at if when is None else when
        env.call_at(at, submit, ("fired", i), spec)

    def send_chained(i, src, messages, j=0):
        spec, k = messages[j]

        def then():
            if j + 1 < len(messages):
                env.call_later(k * CYCLE, send_chained, i, src, messages,
                               j + 1)

        submit(("chained", i, j), spec, src, then)

    def sender(i, start, src, messages):
        yield env.timeout(start)
        send_chained(i, src, messages)

    for i, (start, src, messages) in enumerate(chained):
        env.process(sender(i, start, src, messages))

    env.run(until=HORIZON)
    return {
        "idle": len(env) == 0,
        "delivered": delivered,
        "completed": completed,
        "marks": {ident: (ctx.marks, ctx.closed)
                  for ident, ctx in contexts.items()},
        "stats": dataclasses.asdict(router.stats),
        "rr": router._rr,
    }


def plain(size, echo=None):
    """A single-router message spec: port 0 to port 0 on VC 0."""
    return {"src": 0, "dst": 0, "vc": 0, "size": size, "traced": False,
            "tap": None, "echo": echo}


@settings(max_examples=150, deadline=None)
@given(router_programs())
# A delivery-callback echo and a chained sender's timeout(2 * cycle)
# reach port 0 at one instant; both paths must queue them alike.
@example(program=(
    {"num_ports": 1, "num_vcs": 1, "credit_policy": "static",
     "credits_per_port": 1},
    [(0.0, plain(1)), (0.0, plain(1)), (0.0, plain(1)), (0.0, plain(1)),
     (4e-08, plain(33, echo=plain(1)))],
    [(0.0, 0, [(plain(1), 0), (plain(1), 0), (plain(1), 2),
               (plain(1), 0)])]))
def test_router_matches_per_cycle_reference(program):
    reference = run_router(ReferenceRouter, program)
    assert reference["idle"]
    assert run_router(ElasticRouter, program) == reference


@st.composite
def network_programs(draw):
    if draw(st.booleans()):
        shape = ("ring", draw(st.integers(2, 5)))
        nodes = shape[1]
    else:
        shape = ("mesh", draw(st.integers(1, 3)), draw(st.integers(1, 3)))
        nodes = shape[1] * shape[2]
    vcs = draw(st.integers(1, 2))
    kwargs = {"num_vcs": vcs,
              "credit_policy": draw(st.sampled_from(("static", "elastic"))),
              "credits_per_port": draw(st.integers(vcs, 3 * vcs + 4))}
    node, vc = st.integers(0, nodes - 1), st.integers(0, vcs - 1)
    message = st.tuples(node, node, vc, st.integers(1, 400),
                        st.none() | st.tuples(node, vc, st.integers(1, 400)))
    fired = draw(st.lists(st.tuples(send_times, message), max_size=12))
    chained = draw(st.lists(
        st.tuples(send_times.filter(lambda t: t is not None), node,
                  st.lists(st.tuples(message, st.integers(0, 3)),
                           min_size=1, max_size=4)),
        max_size=2))
    return shape, kwargs, fired, chained


def run_network(router_cls, program):
    shape, kwargs, fired, chained = program
    env = Environment()
    with mock.patch.object(compose, "ElasticRouter", router_cls):
        if shape[0] == "ring":
            network = compose.RingNetwork(env, shape[1], **kwargs)
        else:
            network = compose.MeshNetwork(env, shape[1], shape[2], **kwargs)
    delivered, completed, echoes = defaultdict(list), defaultdict(list), {}

    def submit(ident, message, src=None, then=None):
        src_node, dst_node, vc, size, echo = message
        if echo is not None:
            echoes[ident] = echo

        def sent():
            completed[env.now].append(ident)
            if then is not None:
                then()

        network.send(src_node if src is None else src, dst_node, ident,
                     size, vc=vc, on_sent=sent)

    def local(node, ident):
        delivered[env.now].append((node, ident))
        echo = echoes.pop(ident, None)
        if echo is not None:
            dst_node, vc, size = echo
            submit(("echo", ident), (node, dst_node, vc, size, None))

    for node in range(len(network.routers)):
        network.set_local_handler(node, local)

    at = 0.0
    for i, (when, message) in enumerate(fired):
        at = at if when is None else when
        env.call_at(at, submit, ("fired", i), message)

    def send_chained(i, src, messages, j=0):
        message, k = messages[j]

        def then():
            if j + 1 < len(messages):
                env.call_later(k * CYCLE, send_chained, i, src, messages,
                               j + 1)

        submit(("chained", i, j), message, src, then)

    def sender(i, start, src, messages):
        yield env.timeout(start)
        send_chained(i, src, messages)

    for i, (start, src, messages) in enumerate(chained):
        env.process(sender(i, start, src, messages))

    env.run(until=HORIZON)
    return {
        "idle": len(env) == 0,
        "delivered": {t: sorted(events, key=repr)
                      for t, events in delivered.items()},
        "completed": {t: sorted(events, key=repr)
                      for t, events in completed.items()},
        "stats": [dataclasses.asdict(r.stats) for r in network.routers],
        "rr": [r._rr for r in network.routers],
    }


@settings(max_examples=60, deadline=None)
@given(network_programs())
# The network form of the same race, on a two-node ring.
@example(program=(
    ("ring", 2),
    {"num_vcs": 1, "credit_policy": "static", "credits_per_port": 1},
    [(None, (0, 0, 0, 321, (0, 0, 1))), (0.0, (0, 0, 0, 1, None)),
     (0.0, (0, 0, 0, 1, None)), (0.0, (0, 0, 0, 1, None)),
     (None, (0, 0, 0, 1, None))],
    [(grid(11), 0, [((0, 0, 0, 1, None), 0)])]))
def test_network_matches_per_cycle_reference(program):
    reference = run_network(ReferenceRouter, program)
    assert reference["idle"]
    assert run_network(ElasticRouter, program) == reference
