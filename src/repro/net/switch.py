"""Output-queued datacenter switch with lossless-class support.

The switch models what the paper's fabric relies on:

* per-traffic-class output queues with strict-priority draining (in
  :class:`~repro.net.links.Port`),
* ECN marking with a DC-QCN-style probability ramp between ``kmin`` and
  ``kmax`` queue depths,
* Priority Flow Control: when a lossless-class queue exceeds ``xoff`` the
  switch pauses that class on its upstream neighbors, resuming below
  ``xon``,
* a per-traversal forwarding latency plus stochastic background-traffic
  jitter supplied by :class:`~repro.net.latency.BackgroundTrafficModel`.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Dict, Optional, Tuple

from ..sim import Environment
from ..trace.stages import SWITCH_STAGE_BY_TIER, Stage
from .latency import BackgroundTrafficModel, JitterStream
from .links import Port
from .packet import Packet, TrafficClass

# Hoisted Stage member for the per-packet ingress tap.
_STAGE_LINK_WIRE = Stage.LINK_WIRE


@dataclass
class EcnConfig:
    """DC-QCN ECN marking thresholds on output queues (bytes)."""

    kmin_bytes: int = 5 * 1024
    kmax_bytes: int = 200 * 1024
    pmax: float = 0.01

    def mark_probability(self, queue_bytes: int) -> float:
        """Marking probability for a queue currently ``queue_bytes`` deep."""
        if queue_bytes <= self.kmin_bytes:
            return 0.0
        if queue_bytes >= self.kmax_bytes:
            return 1.0
        span = self.kmax_bytes - self.kmin_bytes
        return self.pmax * (queue_bytes - self.kmin_bytes) / span


@dataclass
class PfcConfig:
    """PFC pause/resume watermarks on lossless output queues (bytes)."""

    xoff_bytes: int = 96 * 1024
    xon_bytes: int = 48 * 1024

    def __post_init__(self) -> None:
        if self.xon_bytes >= self.xoff_bytes:
            raise ValueError("xon watermark must be below xoff")


class SwitchStats:
    """Aggregate counters for one switch."""

    def __init__(self) -> None:
        self.received = 0
        self.forwarded = 0
        self.routing_failures = 0
        self.ecn_marked = 0
        self.pfc_pause_sent = 0
        self.pfc_resume_sent = 0
        self.lossless_overflow = 0


class Switch:
    """A single switch in the TOR/L1/L2 hierarchy.

    Ports are registered under hashable keys (e.g. a host index or the
    string ``"uplink"``).  Routing is a callable, installed by the topology
    builder, mapping a packet to an output-port key.  Upstream transmit
    ports register for PFC so the switch can push back on senders of
    lossless traffic.
    """

    def __init__(self, env: Environment, name: str, tier: str,
                 forwarding_latency: float, rng: random.Random,
                 background: Optional[BackgroundTrafficModel] = None,
                 ecn: Optional[EcnConfig] = None,
                 pfc: Optional[PfcConfig] = None):
        self.env = env
        self.name = name
        self.tier = tier
        self.forwarding_latency = forwarding_latency
        self.background = background
        # Required: every switch must be given its own derived child
        # stream (``RandomStreams.stream(f"switch:{name}")``).  The old
        # ``rng or random.Random(0)`` fallback silently gave distinct
        # switches an identical seed-0 stream, which correlates jitter
        # that must be independent.
        self.rng = rng
        self.ecn = ecn or EcnConfig()
        self.pfc = pfc or PfcConfig()
        self.stats = SwitchStats()
        #: Trace stage this tier's traversal is attributed to (resolved
        #: once here, not per packet); ``None`` for unknown tiers.
        self._trace_stage = SWITCH_STAGE_BY_TIER.get(str(tier).lower())
        #: Buffered jitter sampler (created on first packet so that
        #: unknown tiers still fail at forward time, as before).
        self._jitter: Optional[JitterStream] = None
        self.ports: Dict[object, Port] = {}
        self._router: Optional[Callable[["Switch", Packet], object]] = None
        #: Upstream transmit ports to pause/resume, keyed by neighbor name.
        self._upstream: Dict[str, Port] = {}
        #: (port_key, tc) pairs currently holding upstreams paused.
        self._pausing: Dict[Tuple[object, int], bool] = {}

    # ------------------------------------------------------------------
    # Wiring (used by the topology builder)
    # ------------------------------------------------------------------
    def add_port(self, key: object, port: Port) -> None:
        if key in self.ports:
            raise ValueError(f"duplicate port key {key!r} on {self.name}")
        self.ports[key] = port
        port.on_transmit = lambda pkt, k=key: self._after_transmit(k, pkt)

    def set_router(self, router: Callable[["Switch", Packet], object]) -> None:
        self._router = router

    def register_upstream(self, neighbor_name: str, tx_port: Port) -> None:
        """Register a neighbor's transmit port for PFC pushback."""
        self._upstream[neighbor_name] = tx_port

    # ------------------------------------------------------------------
    # Datapath
    # ------------------------------------------------------------------
    def receive(self, packet: Packet) -> None:
        """Accept a packet from a link; forwarding happens asynchronously."""
        self.stats.received += 1
        packet.hops += 1
        trace = packet.trace
        if trace is not None:
            # The interval since the previous mark is the upstream link:
            # serialization + propagation + port queueing.  Wire time is
            # attributed at the receiver because the sender's port drains
            # asynchronously (see repro.net.links).
            trace.tap(_STAGE_LINK_WIRE, self.env.now)
        delay = self.forwarding_latency
        if self.background is not None:
            jitter = self._jitter
            if jitter is None:
                jitter = self._jitter = self.background.batched(
                    self.tier, self.rng)
            delay += jitter.take()
        self.env.call_later(delay, self._forward, packet)

    def _forward(self, packet: Packet) -> None:
        if packet.trace is not None and self._trace_stage is not None:
            # Forwarding latency + background-traffic jitter for this tier.
            packet.trace.tap(self._trace_stage, self.env.now)
        if self._router is None:
            self.stats.routing_failures += 1
            return
        key = self._router(self, packet)
        port = self.ports.get(key)
        if port is None:
            self.stats.routing_failures += 1
            return
        self._maybe_mark_ecn(port, packet)
        accepted = port.enqueue(packet)
        if accepted:
            self.stats.forwarded += 1
        elif TrafficClass.is_lossless(packet.traffic_class):
            self.stats.lossless_overflow += 1
        self._update_pfc(key, port)

    def _maybe_mark_ecn(self, port: Port, packet: Packet) -> None:
        if packet.ip is None:
            return
        prob = self.ecn.mark_probability(
            port.queued_bytes(packet.traffic_class))
        if prob > 0 and self.rng.random() < prob:
            packet.ecn_marked = True
            packet.ip.ecn = 0b11  # Congestion Experienced
            self.stats.ecn_marked += 1

    # ------------------------------------------------------------------
    # PFC
    # ------------------------------------------------------------------
    def _update_pfc(self, key: object, port: Port) -> None:
        tc = TrafficClass.LOSSLESS
        occupancy = port.queued_bytes(tc)
        paused = self._pausing.get((key, tc), False)
        if not paused and occupancy > self.pfc.xoff_bytes:
            self._pausing[(key, tc)] = True
            self.stats.pfc_pause_sent += 1
            for upstream in self._upstream.values():
                upstream.pause(tc)
        elif paused and occupancy < self.pfc.xon_bytes:
            self._pausing[(key, tc)] = False
            self.stats.pfc_resume_sent += 1
            if not any(self._pausing.values()):
                for upstream in self._upstream.values():
                    upstream.resume(tc)

    def _after_transmit(self, key: object, _packet: Packet) -> None:
        port = self.ports[key]
        self._update_pfc(key, port)

    def __repr__(self) -> str:
        return f"<Switch {self.name} tier={self.tier}>"
