"""A production server: host CPU + NIC behind a bump-in-the-wire FPGA."""

from __future__ import annotations

from typing import Callable, List, Optional

from ..fpga.shell import Shell, ShellConfig
from ..net.fabric import DatacenterFabric
from ..net.packet import Packet
from ..sim import Environment


class Server:
    """One server of the Configurable Cloud.

    The host's NIC is cabled to the FPGA, the FPGA to the TOR: all
    network traffic crosses the shell's bridge.
    """

    def __init__(self, env: Environment, host_index: int,
                 fabric: DatacenterFabric,
                 shell_config: Optional[ShellConfig] = None):
        self.env = env
        self.host_index = host_index
        self.shell = Shell(env, host_index, fabric, config=shell_config)
        self.shell.nic_receive = self._nic_receive
        self._nic_handlers: List[Callable[[Packet], None]] = []
        self.packets_received = 0
        self.packets_sent = 0

    # ------------------------------------------------------------------
    # Host networking (through the FPGA)
    # ------------------------------------------------------------------
    def nic_send(self, packet: Packet) -> None:
        """Host transmits a packet (it enters the FPGA's NIC port)."""
        self.packets_sent += 1
        self.shell.send_from_nic(packet)

    def send_to(self, dst_index: int, payload, payload_bytes: int = -1,
                src_port: int = 0, dst_port: int = 0) -> None:
        """Convenience: build + transmit a UDP packet to another host."""
        packet = self.shell.attachment.make_packet(
            dst_index, payload, payload_bytes=payload_bytes,
            src_port=src_port, dst_port=dst_port)
        self.nic_send(packet)

    def on_packet(self, handler: Callable[[Packet], None]) -> None:
        """Register a host-side packet handler (the NIC's consumer)."""
        self._nic_handlers.append(handler)

    def _nic_receive(self, packet: Packet) -> None:
        self.packets_received += 1
        for handler in self._nic_handlers:
            handler(packet)

    # ------------------------------------------------------------------
    @property
    def fpga(self) -> Shell:
        """The server's FPGA shell (alias for discoverability)."""
        return self.shell
