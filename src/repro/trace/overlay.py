"""Overlay ablations: disable datapath stages to isolate their cost.

The per-hop decomposition says where the recorder *thinks* the time
goes; an ablation proves it.  Each overlay runs the same request stream
over a datapath variant with some stages physically removed — if the
attribution is honest, a bypassed stage's hop disappears (cost -> 0)
and end-to-end latency drops by approximately that hop's share, while
the surviving hops keep their costs.  This is hft-latency-lab's
overlay methodology applied to the acceleration plane.

Overlays (``OVERLAYS``):

* ``full`` — the production path: role -> ER -> LTL -> shell MAC -> TOR
  switch -> remote shell -> ER -> remote role.
* ``bypass_er`` — roles talk to the LTL engine directly; both Elastic
  Router traversals disappear.
* ``bypass_tor`` — engines wired by a point-to-point MAC + wire
  transport; the TOR switch traversal disappears (MAC and wire remain).
* ``loopback_shell`` — frames handed engine-to-engine with no MAC, wire
  or switch at all; only the LTL engine itself remains.
* ``sim_kernel_only`` — no datapath, just the event kernel scheduling a
  role-service delay; the floor every other overlay sits on.

``run_overlay(name)`` returns a :class:`~repro.trace.recorder.
TraceReport`; ``benchmarks/bench_trace_breakdown.py`` runs all five and
gates the ablation deltas.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Tuple

from ..sim import Environment
from .recorder import TraceRecorder, TraceReport
from .stages import Stage

#: Simulated role compute per request, identical in every overlay so the
#: reports differ only by datapath stages.
ROLE_SERVICE_SECONDS = 1.2e-6


@dataclass(frozen=True)
class OverlayConfig:
    """One ablation variant."""

    name: str
    description: str
    #: Stage names expected to carry ~zero cost under this overlay
    #: (bypassed hardware cannot spend time).
    bypassed: Tuple[str, ...] = ()


OVERLAYS: Dict[str, OverlayConfig] = {
    "full": OverlayConfig(
        "full", "production path: role->ER->LTL->MAC->TOR->remote role"),
    "bypass_er": OverlayConfig(
        "bypass_er", "roles call LTL directly; no Elastic Router",
        bypassed=(Stage.ER_INGRESS.value, Stage.ER_SWITCH.value)),
    "bypass_tor": OverlayConfig(
        "bypass_tor", "point-to-point MAC+wire transport; no TOR switch",
        bypassed=(Stage.SWITCH_TOR.value, Stage.SWITCH_L1.value,
                  Stage.SWITCH_L2.value, Stage.ER_INGRESS.value,
                  Stage.ER_SWITCH.value)),
    "loopback_shell": OverlayConfig(
        "loopback_shell", "engine-to-engine loopback; no MAC/wire/switch",
        bypassed=(Stage.SHELL_MAC_TX.value, Stage.SHELL_MAC_RX.value,
                  Stage.LINK_WIRE.value, Stage.SWITCH_TOR.value,
                  Stage.ER_INGRESS.value, Stage.ER_SWITCH.value)),
    "sim_kernel_only": OverlayConfig(
        "sim_kernel_only", "event kernel + role service only; no transport",
        bypassed=(Stage.SHELL_MAC_TX.value, Stage.SHELL_MAC_RX.value,
                  Stage.LINK_WIRE.value, Stage.SWITCH_TOR.value,
                  Stage.ER_INGRESS.value, Stage.ER_SWITCH.value,
                  Stage.LTL_TX.value, Stage.LTL_RX.value)),
}


def run_overlay(name: str, messages: int = 200, payload_bytes: int = 256,
                gap_seconds: float = 20e-6, seed: int = 0,
                sample_rate: float = 0.05) -> TraceReport:
    """Run one overlay's request stream and return its trace report.

    Every overlay sends ``messages`` one-way requests from a client role
    to a server role over its datapath variant, paced ``gap_seconds``
    apart (idle network — this is a latency instrument, not a throughput
    one), completing each span when the server role receives the
    payload.
    """
    if name not in OVERLAYS:
        raise ValueError(
            f"unknown overlay {name!r}; choose from {sorted(OVERLAYS)}")
    runner = {
        "full": _run_full,
        "bypass_er": _run_bypass_er,
        "bypass_tor": _run_bypass_tor,
        "loopback_shell": _run_loopback_shell,
        "sim_kernel_only": _run_sim_kernel_only,
    }[name]
    return runner(messages, payload_bytes, gap_seconds, seed, sample_rate)


def _drain_time(messages: int, gap_seconds: float) -> float:
    # Generous drain so stragglers (retransmits included) complete.
    return messages * gap_seconds + 10e-3


def _serve(recorder: TraceRecorder, env: Environment):
    """Server-role handler: role compute, then close the span.

    The traced payload IS the span's TraceContext, so the handler can
    complete it without a side channel.
    """

    def handler(payload: Any, _length: int) -> None:
        def finish() -> None:
            payload.tap(Stage.ROLE_SERVICE, env.now)
            recorder.complete(payload, env.now)
        env.call_later(ROLE_SERVICE_SECONDS, finish)

    return handler


def _pace(env: Environment, recorder: TraceRecorder, messages: int,
          gap_seconds: float, send_one) -> None:
    """Open one span per message and hand it to ``send_one(ctx)``."""

    def driver(env):
        for i in range(messages):
            ctx = recorder.start(env.now, request_id=i)
            send_one(ctx)
            yield env.timeout(gap_seconds)

    env.process(driver(env), name="overlay-driver")
    env.run(until=env.now + _drain_time(messages, gap_seconds))


def _run_full(messages, payload_bytes, gap_seconds, seed, sample_rate):
    from ..core.cloud import ConfigurableCloud

    cloud = ConfigurableCloud(seed=seed)
    cloud.add_server(0, enroll=False)
    cloud.add_server(1, enroll=False)
    cloud.connect(0, 1)
    recorder = TraceRecorder(sample_rate=sample_rate, seed=seed)
    shell_a, shell_b = cloud.shell(0), cloud.shell(1)
    shell_b.role_receive = _serve(recorder, cloud.env)

    def send_one(ctx):
        shell_a.remote_send(1, ctx, payload_bytes, trace=ctx)

    _pace(cloud.env, recorder, messages, gap_seconds, send_one)
    return recorder.report()


def _run_bypass_er(messages, payload_bytes, gap_seconds, seed, sample_rate):
    from ..core.cloud import ConfigurableCloud
    from ..fpga.shell import RemoteMessage

    cloud = ConfigurableCloud(seed=seed)
    cloud.add_server(0, enroll=False)
    cloud.add_server(1, enroll=False)
    cloud.connect(0, 1)
    recorder = TraceRecorder(sample_rate=sample_rate, seed=seed)
    env = cloud.env
    shell_a, shell_b = cloud.shell(0), cloud.shell(1)
    conn = shell_a._send_conns[1]
    serve = _serve(recorder, env)
    # Hand LTL deliveries straight to the role: no receiving-side ER.
    shell_b.ltl.on_message = \
        lambda _c, payload, n: serve(payload.payload, n)

    def send_one(ctx):
        # No sending-side ER either: the role talks to LTL directly.
        shell_a.ltl.send_message(
            conn, RemoteMessage(ctx, trace=ctx), payload_bytes,
            trace=ctx)

    _pace(env, recorder, messages, gap_seconds, send_one)
    return recorder.report()


class _MacWireTransport:
    """Point-to-point LTL transport: MAC pipelines + one wire, no fabric.

    Taps the same shell/link stages the real shell does, at the same
    relative instants, so the bypass-TOR report is directly comparable
    to the full one minus the switch hop.
    """

    def __init__(self, env: Environment, wire: float = 0.4e-6):
        from ..fpga.shell import ShellConfig

        shell = ShellConfig()
        self.env = env
        self.mac_tx = shell.mac_tx_latency
        self.wire = wire
        self.mac_rx = shell.mac_rx_latency
        self.peers: Dict[int, Any] = {}

    def register(self, engine) -> None:
        self.peers[engine.host_index] = engine

    def send_frame(self, dst_host: int, frame) -> None:
        env = self.env
        start = env.now
        peer = self.peers[dst_host]

        def deliver() -> None:
            trace = frame.trace
            if trace is not None:
                trace.tap(Stage.SHELL_MAC_TX, start + self.mac_tx)
                trace.tap(Stage.LINK_WIRE,
                          start + self.mac_tx + self.wire)
                trace.tap(Stage.SHELL_MAC_RX,
                          start + self.mac_tx + self.wire + self.mac_rx)
            peer.receive_frame(frame)

        env.call_later(self.mac_tx + self.wire + self.mac_rx, deliver)


def _engine_pair(env: Environment, transport) -> Tuple[Any, Any, int]:
    from ..ltl.engine import LtlEngine, connect_pair

    a = LtlEngine(env, 0, transport=transport, name="ltl-a")
    b = LtlEngine(env, 1, transport=transport, name="ltl-b")
    transport.register(a)
    transport.register(b)
    conn_ab, _conn_ba = connect_pair(a, b)
    return a, b, conn_ab


def _run_engines(make_transport, messages, payload_bytes, gap_seconds, seed,
                 sample_rate):
    env = Environment()
    recorder = TraceRecorder(sample_rate=sample_rate, seed=seed)
    engine_a, engine_b, conn = _engine_pair(env, make_transport(env))
    serve = _serve(recorder, env)
    engine_b.on_message = lambda _c, payload, n: serve(payload, n)

    def send_one(ctx):
        engine_a.send_message(conn, ctx, payload_bytes, trace=ctx)

    _pace(env, recorder, messages, gap_seconds, send_one)
    return recorder.report()


def _run_bypass_tor(messages, payload_bytes, gap_seconds, seed, sample_rate):
    return _run_engines(_MacWireTransport, messages, payload_bytes,
                        gap_seconds, seed, sample_rate)


def _run_loopback_shell(messages, payload_bytes, gap_seconds, seed,
                        sample_rate):
    from ..ltl.transports import DirectTransport

    # Zero-cost frame handoff: no MAC, no wire, no switch.
    return _run_engines(lambda env: DirectTransport(env, delay=0.0),
                        messages, payload_bytes, gap_seconds, seed,
                        sample_rate)


def _run_sim_kernel_only(messages, _payload_bytes, gap_seconds, seed,
                         sample_rate):
    env = Environment()
    recorder = TraceRecorder(sample_rate=sample_rate, seed=seed)
    serve = _serve(recorder, env)

    def send_one(ctx):
        serve(ctx, 0)

    _pace(env, recorder, messages, gap_seconds, send_one)
    return recorder.report()
