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

from .. import _lazy_exports

__all__, __getattr__, __dir__ = _lazy_exports(globals(), {
    "addressing": ("HostCoordinates", "host_index_to_coords", "ip_address",
                   "mac_address", "mac_to_host_index"),
    "dcqcn": ("CnpGenerator", "DcqcnConfig", "DcqcnRateController"),
    "fabric": ("Attachment", "DatacenterFabric"),
    "latency": ("BackgroundTrafficModel", "LatencyModel", "TierJitter",
                "idle"),
    "links": ("Port", "PortStats", "propagation_delay"),
    "packet": ("EthernetHeader", "Ipv4Header", "Packet", "TrafficClass",
               "UdpHeader", "make_udp_packet"),
    "switch": ("EcnConfig", "PfcConfig", "Switch"),
    "topology": ("ThreeTierTopology", "TopologyConfig"),
})
