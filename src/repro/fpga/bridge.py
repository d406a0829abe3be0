"""The bump-in-the-wire NIC <-> TOR bridge with its role tap.

"The shell implements a bridge to enable this functionality ... The shell
provides a tap for FPGA roles to inject, inspect, and alter the network
traffic as needed, such as when encrypting network flows."

Taps are ordered filters on each direction.  A tap may pass a packet
through (return it), transform it (return a different packet), or consume
it (return ``None`` — e.g. the LTL engine consumes frames addressed to
this FPGA).  Roles inject packets toward the network through
:meth:`Bridge.inject_to_tor`.

While a power cycle reloads the golden image the link is down and
packets are lost (counted).  That is the failure property the paper
highlights vs the torus: a broken *role* never takes down neighboring
FPGAs, and even a broken image is recoverable by power-cycling to the
golden image.  The golden image's tap-free bypass datapath is not
modeled: taps stay installed across a power cycle.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional

from ..net.packet import Packet
from ..sim import Environment

#: One-way latency through the bridge datapath (313 MHz pipeline).
BRIDGE_LATENCY_SECONDS = 0.05e-6

TapFn = Callable[[Packet], Optional[Packet]]


@dataclass
class BridgeStats:
    tor_to_nic: int = 0
    nic_to_tor: int = 0
    consumed_by_taps: int = 0
    injected: int = 0
    dropped_link_down: int = 0


class Bridge:
    """Bidirectional packet bridge between the TOR and NIC ports."""

    def __init__(self, env: Environment,
                 deliver_to_nic: Optional[Callable[[Packet], None]] = None,
                 deliver_to_tor: Optional[Callable[[Packet], None]] = None):
        self.env = env
        self.deliver_to_nic = deliver_to_nic
        self.deliver_to_tor = deliver_to_tor
        self.stats = BridgeStats()
        self.link_up = True
        self._tor_to_nic_taps: List[TapFn] = []
        self._nic_to_tor_taps: List[TapFn] = []

    # ------------------------------------------------------------------
    # Tap registration
    # ------------------------------------------------------------------
    def add_tor_to_nic_tap(self, tap: TapFn) -> None:
        """Filter for inbound (network -> host) traffic."""
        self._tor_to_nic_taps.append(tap)

    def add_nic_to_tor_tap(self, tap: TapFn) -> None:
        """Filter for outbound (host -> network) traffic."""
        self._nic_to_tor_taps.append(tap)

    def remove_tap(self, tap: TapFn) -> None:
        for taps in (self._tor_to_nic_taps, self._nic_to_tor_taps):
            if tap in taps:
                taps.remove(tap)

    # ------------------------------------------------------------------
    # Datapath
    # ------------------------------------------------------------------
    def from_tor(self, packet: Packet) -> None:
        """Packet arrived on the TOR-facing port."""
        if not self.link_up:
            self.stats.dropped_link_down += 1
            return
        self.env.call_later(BRIDGE_LATENCY_SECONDS, self._pass_taps, packet,
                            self._tor_to_nic_taps, True, 0)

    def from_nic(self, packet: Packet) -> None:
        """Packet arrived on the NIC-facing port."""
        if not self.link_up:
            self.stats.dropped_link_down += 1
            return
        self.env.call_later(BRIDGE_LATENCY_SECONDS, self._pass_taps, packet,
                            self._nic_to_tor_taps, False, 0)

    def _pass_taps(self, packet: Packet, taps: List[TapFn], to_nic: bool,
                   index: int) -> None:
        """Run ``packet`` through ``taps[index:]``, then deliver it."""
        while index < len(taps):
            tap = taps[index]
            # Taps exposing latency_for() (e.g. the crypto engine's
            # pipeline) stall this packet for that long in the tap.
            latency_for = getattr(tap, "latency_for", None)
            if latency_for is not None:
                delay = latency_for(packet)
                if delay > 0:
                    self.env.call_later(delay, self._stalled_tap, tap,
                                        packet, taps, to_nic, index)
                    return
            packet = tap(packet)
            if packet is None:
                self.stats.consumed_by_taps += 1
                return
            index += 1
        self._deliver(packet, to_nic)

    def _stalled_tap(self, tap: TapFn, packet: Packet, taps: List[TapFn],
                     to_nic: bool, index: int) -> None:
        packet = tap(packet)
        if packet is None:
            self.stats.consumed_by_taps += 1
            return
        self._pass_taps(packet, taps, to_nic, index + 1)

    def _deliver(self, packet: Packet, to_nic: bool) -> None:
        if to_nic:
            self.stats.tor_to_nic += 1
            if self.deliver_to_nic is not None:
                self.deliver_to_nic(packet)
        else:
            self.stats.nic_to_tor += 1
            if self.deliver_to_tor is not None:
                self.deliver_to_tor(packet)

    # ------------------------------------------------------------------
    # Role injection
    # ------------------------------------------------------------------
    def inject_to_tor(self, packet: Packet) -> None:
        """A role (e.g. LTL) sources a packet toward the network."""
        if not self.link_up:
            self.stats.dropped_link_down += 1
            return
        self.stats.injected += 1
        if self.deliver_to_tor is not None:
            self.deliver_to_tor(packet)
