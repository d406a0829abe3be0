"""Datacenter network substrate: packets, switches, 3-tier topology, QoS.

The Configurable Cloud's defining property is that FPGAs share the
datacenter's standard Ethernet.  This package simulates that Ethernet:

* :mod:`repro.net.packet` — Ethernet/IPv4/UDP headers with real wire
  serialization, plus the lossless traffic-class taxonomy,
* :mod:`repro.net.links` / :mod:`repro.net.switch` — output-queued switches
  with strict-priority draining, PFC and DC-QCN-style ECN marking,
* :mod:`repro.net.topology` — lazy TOR/L1/L2 tree covering 250k+ hosts,
* :mod:`repro.net.fabric` — the facade endpoints attach to,
* :mod:`repro.net.dcqcn` — the DC-QCN congestion-control state machines.
"""

from .addressing import (
    HostCoordinates,
    host_index_to_coords,
    ip_address,
    mac_address,
    mac_to_host_index,
)
from .dcqcn import CnpGenerator, DcqcnConfig, DcqcnRateController
from .fabric import Attachment, DatacenterFabric
from .latency import BackgroundTrafficModel, LatencyModel, TierJitter, idle
from .links import Port, PortStats, propagation_delay
from .packet import (
    EthernetHeader,
    Ipv4Header,
    Packet,
    TrafficClass,
    UdpHeader,
    make_udp_packet,
)
from .switch import EcnConfig, PfcConfig, Switch
from .topology import ThreeTierTopology, TopologyConfig

__all__ = [
    "Attachment",
    "BackgroundTrafficModel",
    "CnpGenerator",
    "DatacenterFabric",
    "DcqcnConfig",
    "DcqcnRateController",
    "EcnConfig",
    "EthernetHeader",
    "HostCoordinates",
    "Ipv4Header",
    "LatencyModel",
    "Packet",
    "PfcConfig",
    "Port",
    "PortStats",
    "Switch",
    "ThreeTierTopology",
    "TierJitter",
    "TopologyConfig",
    "TrafficClass",
    "UdpHeader",
    "host_index_to_coords",
    "idle",
    "ip_address",
    "mac_address",
    "mac_to_host_index",
    "make_udp_packet",
    "propagation_delay",
]
