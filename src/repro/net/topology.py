"""Three-tier datacenter topology (TOR / L1 / L2).

The paper's network: each TOR connects 24 hosts; L1 switches form pods of
960 machines (40 TORs); L2 connects pods, reaching more than a quarter
million machines.  Oversubscription grows up the tree.

Switches are created lazily — a fabric logically spanning 250k hosts only
instantiates the switches on paths actually exercised, so Fig. 10-style
experiments at L2 scale stay cheap.  Each pod gets a deterministic physical
distance from the L2 tier (datacenter geometry), which dominates cross-pod
latency variation exactly as the paper observes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Optional, Tuple

from ..sim import Environment, RandomStreams
from ..sim.randomness import _derive_seed
from .addressing import (
    HostCoordinates,
    host_index_to_coords,
    ip_address,
    mac_address,
    mac_to_host_index,
)
from .latency import BackgroundTrafficModel, LatencyModel
from .links import Port
from .switch import EcnConfig, PfcConfig, Switch


@dataclass
class TopologyConfig:
    """Shape and physics of the simulated datacenter network."""

    hosts_per_tor: int = 24
    tors_per_pod: int = 40
    pods: int = 264  # 264 * 960 = 253,440 hosts — "more than a quarter million"
    latency: LatencyModel = field(default_factory=LatencyModel)
    background: Optional[BackgroundTrafficModel] = field(
        default_factory=BackgroundTrafficModel)
    ecn: EcnConfig = field(default_factory=EcnConfig)
    pfc: PfcConfig = field(default_factory=PfcConfig)

    @property
    def hosts_per_pod(self) -> int:
        return self.hosts_per_tor * self.tors_per_pod

    @property
    def total_hosts(self) -> int:
        return self.hosts_per_pod * self.pods


def pod_distance_m(config: TopologyConfig, seed: int, pod: int) -> float:
    """Deterministic per-pod fiber run to the L2 tier (metres).

    A pure function of (config, seed, pod), so a closed-form path sum
    (the idle-RTT oracle in ``tests/net``) needs no topology.
    """
    lat = config.latency
    # Stable pseudo-random fraction derived from the pod id.  Uses the
    # process-stable seed derivation — ``hash()`` on strings is salted
    # per interpreter and would move every pod between runs.
    u = (_derive_seed(seed, "pod-distance", pod) & 0xFFFFFF) / float(1 << 24)
    return lat.l1_l2_distance_min_m + u * (
        lat.l1_l2_distance_max_m - lat.l1_l2_distance_min_m)


class ThreeTierTopology:
    """Lazily materialized TOR/L1/L2 switch tree.

    One logical L1 switch aggregates each pod and one logical L2 switch
    aggregates the datacenter; oversubscription inside those aggregates is
    modeled by the background-traffic jitter rather than by instantiating
    hundreds of physical chassis.
    """

    def __init__(self, env: Environment, config: Optional[TopologyConfig]
                 = None, streams: Optional[RandomStreams] = None):
        self.env = env
        self.config = config or TopologyConfig()
        self.streams = streams or RandomStreams(seed=0)
        self._tors: Dict[Tuple[int, int], Switch] = {}
        self._l1s: Dict[int, Switch] = {}
        self._l2: Optional[Switch] = None
        # Address strings per host index: every packet header carries
        # both, and each is rebuilt by string formatting.
        self._ip_by_host: Dict[int, str] = {}
        self._mac_by_host: Dict[int, str] = {}

    # ------------------------------------------------------------------
    # Coordinates and physics
    # ------------------------------------------------------------------
    def coords(self, host_index: int) -> HostCoordinates:
        if not 0 <= host_index < self.config.total_hosts:
            raise ValueError(
                f"host index {host_index} outside datacenter of "
                f"{self.config.total_hosts} hosts")
        return host_index_to_coords(
            host_index, self.config.hosts_per_tor, self.config.tors_per_pod)

    def tier_between(self, a: int, b: int) -> str:
        """Lowest network tier connecting hosts ``a`` and ``b``."""
        ca, cb = self.coords(a), self.coords(b)
        if ca.same_tor(cb):
            return "L0"
        if ca.same_pod(cb):
            return "L1"
        return "L2"

    def pod_distance_m(self, pod: int) -> float:
        """Deterministic per-pod fiber run to the L2 tier (metres)."""
        return pod_distance_m(self.config, self.streams.seed, pod)

    def ip_of(self, host_index: int) -> str:
        ip = self._ip_by_host.get(host_index)
        if ip is None:
            self.coords(host_index)  # raises for a host outside the fabric
            ip = self._ip_by_host[host_index] = ip_address(host_index)
        return ip

    def mac_of(self, host_index: int) -> str:
        mac = self._mac_by_host.get(host_index)
        if mac is None:
            mac = self._mac_by_host[host_index] = mac_address(host_index)
        return mac

    # ------------------------------------------------------------------
    # Lazy switch construction
    # ------------------------------------------------------------------
    def _make_switch(self, name: str, tier: str, latency: float) -> Switch:
        return Switch(
            self.env, name=name, tier=tier, forwarding_latency=latency,
            background=self.config.background,
            rng=self.streams.stream(f"switch:{name}"),
            ecn=self.config.ecn, pfc=self.config.pfc)

    def tor(self, pod: int, tor: int) -> Switch:
        key = (pod, tor)
        if key not in self._tors:
            switch = self._make_switch(
                f"tor-{pod}-{tor}", "tor", self.config.latency.tor_latency)
            switch.set_router(self._tor_router(pod, tor))
            self._tors[key] = switch
            self._wire_tor_to_l1(switch, pod, tor)
        return self._tors[key]

    def l1(self, pod: int) -> Switch:
        if pod not in self._l1s:
            switch = self._make_switch(
                f"l1-{pod}", "l1", self.config.latency.l1_latency)
            switch.set_router(self._l1_router(pod))
            self._l1s[pod] = switch
            self._wire_l1_to_l2(switch, pod)
        return self._l1s[pod]

    def l2(self) -> Switch:
        if self._l2 is None:
            switch = self._make_switch(
                "l2", "l2", self.config.latency.l2_latency)
            switch.set_router(self._route_l2)
            self._l2 = switch
        return self._l2

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------
    def _wire_tor_to_l1(self, tor_switch: Switch, pod: int, tor: int) -> None:
        lat = self.config.latency
        l1_switch = self.l1(pod)
        up = Port(self.env, f"{tor_switch.name}->l1",
                  rate_bps=lat.tor_uplink_rate_bps,
                  distance_m=lat.tor_l1_distance_m,
                  deliver=l1_switch.receive)
        tor_switch.add_port("uplink", up)
        down = Port(self.env, f"l1-{pod}->{tor_switch.name}",
                    rate_bps=lat.tor_uplink_rate_bps,
                    distance_m=lat.tor_l1_distance_m,
                    deliver=tor_switch.receive)
        l1_switch.add_port(("tor", tor), down)
        # PFC pushback between the pair.
        l1_switch.register_upstream(tor_switch.name, up)
        tor_switch.register_upstream(l1_switch.name, down)

    def _wire_l1_to_l2(self, l1_switch: Switch, pod: int) -> None:
        lat = self.config.latency
        l2_switch = self.l2()
        distance = self.pod_distance_m(pod)
        up = Port(self.env, f"{l1_switch.name}->l2",
                  rate_bps=lat.l1_uplink_rate_bps, distance_m=distance,
                  deliver=l2_switch.receive)
        l1_switch.add_port("uplink", up)
        down = Port(self.env, f"l2->{l1_switch.name}",
                    rate_bps=lat.l1_uplink_rate_bps, distance_m=distance,
                    deliver=l1_switch.receive)
        l2_switch.add_port(("pod", pod), down)
        l2_switch.register_upstream(l1_switch.name, up)
        l1_switch.register_upstream(l2_switch.name, down)

    # ------------------------------------------------------------------
    # Routing: each switch asks its router once per destination MAC and
    # keeps the answer (Switch's forwarding table), so a router is plain
    # address arithmetic with the switch's own (pod, tor) bound in.
    # ------------------------------------------------------------------
    def _tor_router(self, pod: int, tor: int) -> Callable[[str], object]:
        def route(dst_mac: str) -> object:
            dst = mac_to_host_index(dst_mac)
            coords = self.coords(dst)
            if coords.pod == pod and coords.tor == tor:
                return dst  # host-facing port keyed by host index
            return "uplink"
        return route

    def _l1_router(self, pod: int) -> Callable[[str], object]:
        def route(dst_mac: str) -> object:
            coords = self.coords(mac_to_host_index(dst_mac))
            if coords.pod == pod:
                return ("tor", coords.tor)
            return "uplink"
        return route

    def _route_l2(self, dst_mac: str) -> object:
        return ("pod", self.coords(mac_to_host_index(dst_mac)).pod)
