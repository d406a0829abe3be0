"""Host addressing for the simulated datacenter.

Hosts are identified by a dense integer index.  The topology maps an index
to its (pod, tor, slot) coordinates, and to IPv4/MAC addresses used in
packet headers.  Both addresses carry the host index, so every host has
its own: the low 24 bits of a 10.0.0.0/8 IP and the low 40 bits of a
locally-administered MAC.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class HostCoordinates:
    """Position of a host in the 3-tier tree."""

    pod: int
    tor: int
    slot: int

    def same_tor(self, other: "HostCoordinates") -> bool:
        return self.pod == other.pod and self.tor == other.tor

    def same_pod(self, other: "HostCoordinates") -> bool:
        return self.pod == other.pod


def host_index_to_coords(index: int, hosts_per_tor: int,
                         tors_per_pod: int) -> HostCoordinates:
    """Convert a dense host index into (pod, tor, slot) coordinates."""
    if index < 0:
        raise ValueError(f"negative host index: {index}")
    hosts_per_pod = hosts_per_tor * tors_per_pod
    pod, rem = divmod(index, hosts_per_pod)
    tor, slot = divmod(rem, hosts_per_tor)
    return HostCoordinates(pod=pod, tor=tor, slot=slot)


def ip_address(index: int) -> str:
    """Dotted-quad IP in 10.0.0.0/8 embedding the host index."""
    if not 0 <= index < 2 ** 24:
        raise ValueError(f"host index out of IP range: {index}")
    return f"10.{index >> 16}.{(index >> 8) & 0xFF}.{index & 0xFF}"


def mac_address(index: int) -> str:
    """Locally-administered MAC embedding the host index."""
    if not 0 <= index < 2 ** 40:
        raise ValueError(f"host index out of MAC range: {index}")
    octets = [0x02] + [(index >> shift) & 0xFF
                       for shift in (32, 24, 16, 8, 0)]
    return ":".join(f"{o:02x}" for o in octets)


def mac_to_host_index(mac: str) -> int:
    """Recover the host index from a MAC built by :func:`mac_address`."""
    parts = mac.split(":")
    if len(parts) != 6 or parts[0] != "02":
        raise ValueError(f"not a simulated host MAC: {mac}")
    value = 0
    for part in parts[1:]:
        value = (value << 8) | int(part, 16)
    return value
