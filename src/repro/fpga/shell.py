"""The Shell: everything on the FPGA that is not the role (paper Fig. 4).

One :class:`Shell` per server wires together:

* the NIC<->TOR **bridge** with its role tap (bump-in-the-wire),
* two 40G **MAC/PHY** models (fixed pipeline latencies),
* the **Elastic Router** with the paper's example 4-port single-role
  configuration: PCIe DMA, Role, DRAM, Remote (LTL),
* the **LTL protocol engine**, whose transport encapsulates frames in
  UDP/IPv4 on the lossless traffic class and injects them at the
  TOR-facing port,
* the **configuration manager** (golden image, reconfig) and, once
  installed (the fault injector's role hang installs one), the **SEU
  scrubber**.

ER ports 0 (PCIe DMA) and 2 (DRAM) keep the paper's numbering but carry
no model: the paper's PCIe and DRAM facts that the experiments use live
in :mod:`repro.deployment.failures` and :class:`repro.ranking.FfuConfig`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Dict, Optional

from ..ltl.engine import LtlConfig, LtlEngine, connect_pair
from ..ltl.frames import LTL_UDP_PORT, LtlFrame
from ..net.fabric import Attachment, DatacenterFabric
from ..net.packet import Packet, TrafficClass
from ..router.elastic_router import ElasticRouter
from ..sim import Environment
from ..trace.stages import Stage
from .board import Board
from .bridge import Bridge
from .reconfig import ConfigurationManager

if TYPE_CHECKING:
    from .seu import SeuScrubber

# Elastic Router port map for the example single-role deployment (§V-B):
# "the ER is instantiated with 4 ports: (1) PCIe DMA, (2) Role, (3) DRAM,
# and (4) Remote (to LTL)".  Fig. 4's "Role x N" is not modeled.
ER_PORT_DMA = 0
ER_PORT_ROLE = 1
ER_PORT_DRAM = 2
ER_PORT_REMOTE = 3

# Hoisted Stage members: the datapath taps run per packet, and an enum
# attribute lookup (descriptor + dict probe) per tap is measurable there.
_STAGE_LINK_WIRE = Stage.LINK_WIRE
_STAGE_SHELL_MAC_RX = Stage.SHELL_MAC_RX
_STAGE_SHELL_MAC_TX = Stage.SHELL_MAC_TX


@dataclass
class ShellConfig:
    """Shell build options."""

    #: 40G MAC+PHY pipeline latencies, one traversal.
    mac_tx_latency: float = 0.18e-6
    mac_rx_latency: float = 0.18e-6
    #: Deploy the LTL block?  "Services using only their single local FPGA
    #: can choose to deploy a shell version without the LTL block."
    with_ltl: bool = True
    ltl: LtlConfig = field(default_factory=LtlConfig)
    #: Traffic class LTL frames ride on.  Production uses the lossless
    #: (PFC-protected) class; the A2 ablation compares best-effort.
    ltl_traffic_class: int = TrafficClass.LOSSLESS


@dataclass(slots=True)
class RemoteEnvelope:
    """ER message bound for another FPGA through the Remote (LTL) port."""

    dst_host: int
    payload: Any
    #: Optional :class:`repro.trace.TraceContext` riding the request.
    trace: Any = None


@dataclass(slots=True)
class RemoteMessage:
    """What actually rides the LTL connection between two shells."""

    payload: Any
    #: Trace context carried across so the receiving shell's ER and role
    #: taps continue the same span.
    trace: Any = None


class FabricLtlTransport:
    """LTL transport over the shell's TOR-facing 40G MAC + the fabric."""

    def __init__(self, shell: "Shell"):
        self.shell = shell

    def send_frame(self, dst_host: int, frame: LtlFrame) -> None:
        shell = self.shell
        shell.env.call_later(
            shell.config.mac_tx_latency, self._inject, dst_host, frame)

    def _inject(self, dst_host: int, frame: LtlFrame) -> None:
        shell = self.shell
        packet = shell.attachment.make_packet(
            dst_index=dst_host, payload=frame,
            payload_bytes=frame.wire_bytes,
            src_port=LTL_UDP_PORT, dst_port=LTL_UDP_PORT,
            traffic_class=shell.config.ltl_traffic_class)
        # The frame's trace context rides the packet so switch/link tap
        # points along the fabric see it (ACKs/NACKs carry none).
        packet.trace = frame.trace
        shell.bridge.inject_to_tor(packet)


class Shell:
    """One FPGA board's shell instance, attached to the fabric."""

    def __init__(self, env: Environment, host_index: int,
                 fabric: DatacenterFabric,
                 config: Optional[ShellConfig] = None):
        self.env = env
        self.host_index = host_index
        self.fabric = fabric
        self.config = config or ShellConfig()
        self.board = Board(serial=host_index)

        # Configuration + health.
        self.configuration = ConfigurationManager(env)
        self.configuration.on_link_change = self._on_link_change
        #: SEU model, absent until installed: most experiments run for
        #: simulated milliseconds, where SEUs are noise.
        self.scrubber: Optional[SeuScrubber] = None

        # Bridge between NIC and TOR (the bump in the wire).
        self.bridge = Bridge(env)
        self.bridge.deliver_to_tor = self._mac_to_tor
        self.bridge.deliver_to_nic = self._deliver_to_host_nic

        # Network attachment (TOR-facing QSFP).
        self.attachment: Attachment = fabric.attach(
            host_index, self._receive_from_tor)

        # Host NIC delivery callback, set by the owning server.
        self.nic_receive: Optional[Callable[[Packet], None]] = None

        # On-chip interconnect.
        self.er = ElasticRouter(env, name=f"er-{host_index}", num_ports=4)
        self.er.set_endpoint(ER_PORT_REMOTE, self._er_remote_out)

        # LTL engine + connection cache.
        self.ltl: Optional[LtlEngine] = None
        if self.config.with_ltl:
            self.ltl = LtlEngine(env, host_index, config=self.config.ltl,
                                 name=f"ltl-{host_index}")
            self.ltl.transport = FabricLtlTransport(self)
            self.ltl.on_message = self._ltl_message_in
            self.ltl.on_connection_failed = self._remote_failed
            self.ltl.on_connection_degraded = self._remote_degraded
        self._send_conns: Dict[int, int] = {}  # dst host -> send conn id
        #: Called with the remote host index when LTL declares it failed
        #: ("timeouts can also be used to identify failing nodes quickly,
        #: if ultra-fast reprovisioning of a replacement is critical") —
        #: HaaS service managers hook this to trigger replacement.
        self.on_remote_failure: Optional[Callable[[int], None]] = None
        #: Called with the remote host index when LTL suspects the remote
        #: is gray (slow) — repeated timeouts short of failure.
        self.on_remote_degraded: Optional[Callable[[int], None]] = None

        #: Role message handler: called with (payload, length_bytes).
        self.role_receive: Optional[Callable[[Any, int], None]] = None
        self.er.set_endpoint(ER_PORT_ROLE, self._role_in)

    # ------------------------------------------------------------------
    # Link management
    # ------------------------------------------------------------------
    def _on_link_change(self, up: bool) -> None:
        self.bridge.link_up = up

    # ------------------------------------------------------------------
    # TOR-side datapath
    # ------------------------------------------------------------------
    def _receive_from_tor(self, packet: Packet) -> None:
        """All traffic from the TOR lands here (it is a bump in the wire).

        The packet crosses the MAC/PHY rx pipeline before it is handled.
        """
        trace = packet.trace
        if trace is not None:
            # Close the last wire hop (TOR -> this host's QSFP).
            trace.tap(_STAGE_LINK_WIRE, self.env.now)
        self.env.call_later(self.config.mac_rx_latency,
                            self._rx_deliver, packet)

    def _rx_deliver(self, packet: Packet) -> None:
        if packet.trace is not None:
            packet.trace.tap(_STAGE_SHELL_MAC_RX, self.env.now)
        if self._is_local_ltl(packet):
            if self.ltl is not None:
                self.ltl.receive_frame(packet.payload,
                                       ecn_marked=packet.ecn_marked)
            return
        self.bridge.from_tor(packet)

    def _is_local_ltl(self, packet: Packet) -> bool:
        return (packet.udp is not None
                and packet.udp.dst_port == LTL_UDP_PORT
                and isinstance(packet.payload, LtlFrame)
                and packet.eth.dst_mac == self.attachment.mac)

    def _mac_to_tor(self, packet: Packet) -> None:
        """Bridge/injection output toward the TOR port, through the
        MAC/PHY tx pipeline."""
        self.env.call_later(self.config.mac_tx_latency,
                            self._tx_send, packet)

    def _tx_send(self, packet: Packet) -> None:
        if packet.trace is not None:
            # Everything since the LTL tx mark — transport + MAC/PHY
            # pipeline — is shell transmit time; the wire hop starts
            # here at the QSFP.
            packet.trace.tap(_STAGE_SHELL_MAC_TX, self.env.now)
        self.attachment.send(packet)

    # ------------------------------------------------------------------
    # NIC-side datapath
    # ------------------------------------------------------------------
    def send_from_nic(self, packet: Packet) -> None:
        """The host NIC transmits: packet enters the FPGA's NIC port."""
        self.bridge.from_nic(packet)

    def _deliver_to_host_nic(self, packet: Packet) -> None:
        if self.nic_receive is not None:
            self.nic_receive(packet)

    # ------------------------------------------------------------------
    # Remote (LTL) port of the Elastic Router
    # ------------------------------------------------------------------
    def connect_to(self, other: "Shell", vc: int = 0) -> None:
        """Establish a persistent LTL connection pair with ``other``."""
        if self.ltl is None or other.ltl is None:
            raise RuntimeError("both shells need the LTL block "
                               "(ShellConfig.with_ltl)")
        if other.host_index in self._send_conns:
            return
        conn_here, conn_there = connect_pair(self.ltl, other.ltl, vc=vc)
        self._send_conns[other.host_index] = conn_here
        other._send_conns[self.host_index] = conn_there

    def remote_send(self, dst_host: int, payload: Any,
                    length_bytes: int, trace: Any = None) -> None:
        """Role-level API: send a message to the role on another FPGA.

        (Short-hand for pushing a :class:`RemoteEnvelope` through the ER's
        Remote port.)  ``trace`` (a :class:`~repro.trace.TraceContext`)
        travels the whole hop: ER virtual channel here, LTL on the wire,
        and the ER on the receiving shell, and is tapped at every
        datapath stage along the way.
        """
        self.er.send(ER_PORT_ROLE, ER_PORT_REMOTE,
                     RemoteEnvelope(dst_host, payload, trace=trace),
                     length_bytes, trace=trace)

    def _er_remote_out(self, message) -> None:
        """ER delivered a message at the Remote port: hand it to LTL."""
        envelope: RemoteEnvelope = message.payload
        if self.ltl is None:
            raise RuntimeError("remote message on a shell without LTL")
        conn = self._send_conns.get(envelope.dst_host)
        if conn is None:
            raise RuntimeError(
                f"no LTL connection from {self.host_index} to "
                f"{envelope.dst_host}; call connect_to() first")
        self.ltl.send_message(
            conn, RemoteMessage(envelope.payload, trace=envelope.trace),
            message.length_bytes, trace=envelope.trace)

    def _ltl_message_in(self, _conn_id: int, message: RemoteMessage,
                        length_bytes: int) -> None:
        """LTL delivered a message: route it to the role through the ER."""
        self.er.send(ER_PORT_REMOTE, ER_PORT_ROLE, message.payload,
                     length_bytes, trace=message.trace)

    def _role_in(self, message) -> None:
        """ER delivered a message at the Role port."""
        if self.scrubber is not None and self.scrubber.role_hung:
            # An SEU wedged the role region: messages go unanswered
            # until the ~30 s scrub pass recovers it (§II-B).  Senders'
            # LTL retransmissions mask short hangs.
            return
        if self.role_receive is not None:
            self.role_receive(message.payload, message.length_bytes)

    def _remote_failed(self, connection_id: int, remote_host: int) -> None:
        # Drop the cached connection and free its table entry so a later
        # reprovision rebuilds it — HaaS re-establishes at the connect_to
        # level, so no connection stays permanently failed.
        self._send_conns.pop(remote_host, None)
        if self.ltl is not None and connection_id in self.ltl.send_table:
            self.ltl.close_send_connection(connection_id)
        if self.on_remote_failure is not None:
            self.on_remote_failure(remote_host)

    def _remote_degraded(self, _connection_id: int, remote_host: int) -> None:
        if self.on_remote_degraded is not None:
            self.on_remote_degraded(remote_host)
