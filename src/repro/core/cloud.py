"""The Configurable Cloud facade — the paper's primary contribution.

:class:`ConfigurableCloud` assembles the whole system: a shared
datacenter Ethernet, servers whose FPGAs sit between NIC and TOR, LTL
connectivity between any pair of FPGAs, and the HaaS control plane
managing the FPGAs as a global pool.

Quickstart::

    from repro import ConfigurableCloud

    cloud = ConfigurableCloud(seed=42)
    a = cloud.add_server(0)
    b = cloud.add_server(1)
    cloud.connect(0, 1)                       # persistent LTL connection
    rtts = cloud.measure_ltl_rtt(0, 1, messages=100)
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional

from ..fpga.shell import Shell, ShellConfig
from ..net.fabric import DatacenterFabric
from ..net.topology import TopologyConfig
from ..sim import Environment, RandomStreams
from .server import Server

if TYPE_CHECKING:
    from ..haas.resource_manager import ResourceManager


class ConfigurableCloud:
    """Facade wiring fabric + servers + shells + HaaS together."""

    def __init__(self, env: Optional[Environment] = None,
                 topology: Optional[TopologyConfig] = None,
                 seed: int = 0):
        # Explicit None check: Environment defines __len__ (scheduled
        # entries), so a freshly created — hence empty — env is *falsy*
        # and ``env or Environment()`` would silently discard it.
        self.env = env if env is not None else Environment()
        self.streams = RandomStreams(seed=seed)
        self.fabric = DatacenterFabric(self.env, topology, self.streams)
        self.servers: Dict[int, Server] = {}
        self._rm: Optional[ResourceManager] = None

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def add_server(self, host_index: int,
                   shell_config: Optional[ShellConfig] = None,
                   enroll: bool = True) -> Server:
        """Create a server at ``host_index`` and (optionally) enroll its
        FPGA into the HaaS pool."""
        if host_index in self.servers:
            raise ValueError(f"server {host_index} already exists")
        server = Server(
            self.env, host_index, self.fabric, shell_config=shell_config)
        self.servers[host_index] = server
        if enroll:
            from ..haas.fpga_manager import FpgaManager
            self.resource_manager.register(
                FpgaManager(self.env, server.shell))
        return server

    def add_servers(self, host_indices: List[int], **kwargs) -> List[Server]:
        return [self.add_server(i, **kwargs) for i in host_indices]

    def server(self, host_index: int) -> Server:
        return self.servers[host_index]

    def shell(self, host_index: int) -> Shell:
        return self.servers[host_index].shell

    # ------------------------------------------------------------------
    # HaaS
    # ------------------------------------------------------------------
    @property
    def resource_manager(self) -> ResourceManager:
        """The datacenter's (lazily created) Resource Manager."""
        if self._rm is None:
            from ..haas.resource_manager import ResourceManager
            self._rm = ResourceManager(self.env, self.fabric.topology)
        return self._rm

    # ------------------------------------------------------------------
    # Inter-FPGA communication
    # ------------------------------------------------------------------
    def connect(self, a: int, b: int, vc: int = 0) -> None:
        """Establish a persistent LTL connection between two servers'
        FPGAs."""
        self.shell(a).connect_to(self.shell(b), vc=vc)

    def measure_ltl_rtt(self, a: int, b: int, messages: int = 100,
                        payload_bytes: int = 64,
                        gap_seconds: float = 100e-6) -> List[float]:
        """Idle round-trip latency samples between two FPGAs.

        Measured as the paper does: "from the moment the header of a
        packet is generated in LTL until the corresponding ACK for that
        packet is received in LTL", at a very low rate.
        """
        self.connect(a, b)
        shell_a = self.shell(a)
        before = len(shell_a.ltl.rtt_samples())

        def driver(env):
            for _ in range(messages):
                shell_a.remote_send(b, b"\x00" * payload_bytes,
                                    payload_bytes)
                yield env.timeout(gap_seconds)

        self.env.process(driver(self.env))
        self.env.run(until=self.env.now + messages * gap_seconds + 5e-3)
        return shell_a.ltl.rtt_samples()[before:]

    # ------------------------------------------------------------------
    def run(self, until=None):
        """Advance the simulation (delegates to the environment)."""
        return self.env.run(until=until)
