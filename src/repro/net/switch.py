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
from typing import Callable, Dict, Optional, Set, Tuple

from ..sim import Environment
from ..trace.stages import SWITCH_STAGE_BY_TIER, Stage
from .latency import BackgroundTrafficModel, JitterStream
from .links import Port
from .packet import Packet, TrafficClass

# Hoisted Stage member for the per-packet ingress tap.
_STAGE_LINK_WIRE = Stage.LINK_WIRE
#: The one class PFC protects.
_LOSSLESS = TrafficClass.LOSSLESS


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


class Switch:
    """A single switch in the TOR/L1/L2 hierarchy.

    Ports are registered under hashable keys (e.g. a host index or the
    string ``"uplink"``).  Routing is a callable, installed by the topology
    builder, mapping a destination MAC to an output-port key.  The switch
    keeps what it resolves in a forwarding table, MAC -> (key, port), so
    each destination asks the router once; the table is cleared whenever
    a port or the router changes.  A route to a key with no port is not
    kept: it counts a routing failure on every packet until the port is
    added.  Upstream transmit ports register for PFC so the switch can
    push back on senders of lossless traffic.
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
        self._router: Optional[Callable[[str], object]] = None
        #: Forwarding table: destination MAC -> (port key, port).
        self._table: Dict[str, Tuple[object, Port]] = {}
        #: Upstream transmit ports to pause/resume, keyed by neighbor name.
        self._upstream: Dict[str, Port] = {}
        #: Keys of the ports whose lossless queue holds upstreams paused.
        self._pausing: Set[object] = set()

    # ------------------------------------------------------------------
    # Wiring (used by the topology builder)
    # ------------------------------------------------------------------
    def add_port(self, key: object, port: Port) -> None:
        if key in self.ports:
            raise ValueError(f"duplicate port key {key!r} on {self.name}")
        self.ports[key] = port
        self._table.clear()

    def remove_port(self, key: object) -> Port:
        """Take the port under ``key`` out of the switch.

        Its transmit hook is unhooked, and a pause it holds on the
        upstreams is withdrawn: they resume unless another port still
        pauses them.  The port itself keeps draining whatever it has
        queued.
        """
        port = self.ports.pop(key)
        self._table.clear()
        port.on_transmit = None
        if key in self._pausing:
            self._pausing.discard(key)
            self.stats.pfc_resume_sent += 1
            if not self._pausing:
                for upstream in self._upstream.values():
                    upstream.resume(_LOSSLESS)
        return port

    def set_router(self, router: Callable[[str], object]) -> None:
        """Route by ``router(dst_mac) -> port key``.  The router must
        answer a MAC the same way every time, since the switch asks it
        once per destination."""
        self._router = router
        self._table.clear()

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
        trace = packet.trace
        if trace is not None and self._trace_stage is not None:
            # Forwarding latency + background-traffic jitter for this tier.
            trace.tap(self._trace_stage, self.env.now)
        eth = packet.eth
        route = self._table.get(eth.dst_mac)
        if route is None:
            route = self._resolve(eth.dst_mac)
            if route is None:
                self.stats.routing_failures += 1
                return
        key, port = route
        tc = eth.priority
        depth = port.queued_bytes(tc)
        # At or below kmin the marking probability is 0 and nothing is
        # drawn.
        if depth > self.ecn.kmin_bytes and packet.ip is not None:
            self._mark_ecn(packet, depth)
        if port.enqueue(packet):
            self.stats.forwarded += 1
        if tc == _LOSSLESS:
            # A lossless packet is never dropped: the enqueue added
            # exactly its wire size to the depth read above.
            depth += packet.wire_bytes
        else:
            depth = port.queued_bytes(_LOSSLESS)
        # _update_pfc acts only to assert a pause above xoff or to
        # withdraw one this port holds.
        if key in self._pausing or depth > self.pfc.xoff_bytes:
            self._update_pfc(key, port)

    def _resolve(self, dst_mac: str) -> Optional[Tuple[object, Port]]:
        """Ask the router for ``dst_mac``'s port and keep the answer;
        ``None`` (and nothing kept) if there is no router or no port
        under the key it names."""
        if self._router is None:
            return None
        key = self._router(dst_mac)
        port = self.ports.get(key)
        if port is None:
            return None
        route = self._table[dst_mac] = (key, port)
        return route

    def _mark_ecn(self, packet: Packet, depth: int) -> None:
        prob = self.ecn.mark_probability(depth)
        if prob > 0 and self.rng.random() < prob:
            packet.ecn_marked = True
            packet.ip.ecn = 0b11  # Congestion Experienced
            self.stats.ecn_marked += 1

    # ------------------------------------------------------------------
    # PFC
    # ------------------------------------------------------------------
    def _update_pfc(self, key: object, port: Port) -> None:
        """Assert or withdraw the pause that ``port``'s lossless queue
        holds on the upstreams.  While it is asserted, the port reports
        each transmit completion back here, since only a draining queue
        can withdraw it."""
        occupancy = port.queued_bytes(_LOSSLESS)
        paused = key in self._pausing
        if not paused and occupancy > self.pfc.xoff_bytes:
            self._pausing.add(key)
            self.stats.pfc_pause_sent += 1
            port.on_transmit = \
                lambda _packet: self._update_pfc(key, port)
            for upstream in self._upstream.values():
                upstream.pause(_LOSSLESS)
        elif paused and occupancy < self.pfc.xon_bytes:
            self._pausing.discard(key)
            self.stats.pfc_resume_sent += 1
            port.on_transmit = None
            if not self._pausing:
                for upstream in self._upstream.values():
                    upstream.resume(_LOSSLESS)

    def __repr__(self) -> str:
        return f"<Switch {self.name} tier={self.tier}>"
