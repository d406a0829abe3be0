"""HardwareService: ganging pooled FPGAs into a callable service.

The paper's remote-acceleration story end to end: a Service Manager
leases FPGAs from the Resource Manager, deploys a role image, the
client's FPGA opens LTL connections to every member, requests are
load-balanced across the pool, and LTL's fast failure detection feeds
back into HaaS so failed members are replaced and reconnected — "failing
nodes are removed from the pool with replacements quickly added."
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Optional

from ..fpga.reconfig import Image
from ..haas.constraints import Constraints
from ..haas.service_manager import ServiceManager
from .cloud import ConfigurableCloud
from .server import Server


class HardwareService:
    """A remotely-callable hardware service on the global FPGA pool."""

    def __init__(self, cloud: ConfigurableCloud, name: str, image: Image,
                 constraints: Optional[Constraints] = None,
                 components: int = 1):
        self.cloud = cloud
        self.name = name
        self.sm = ServiceManager(cloud.env, name, cloud.resource_manager,
                                 image, constraints)
        self.sm.on_component_replaced = self._on_replacement
        self.sm.grow(components)
        self._clients: Dict[int, Server] = {}
        self.requests_sent = 0
        self.failovers = 0
        self.gray_reports = 0

    # ------------------------------------------------------------------
    @property
    def hosts(self):
        """FPGAs currently serving this service."""
        return self.sm.hosts

    def set_handler(self, handler: Callable[[Any, int], None]) -> None:
        """Install the role's request handler on every serving FPGA.

        (Also re-applied to replacements on failover.)
        """
        self._handler = handler
        for host in self.hosts:
            self.cloud.shell(host).role_receive = handler

    # ------------------------------------------------------------------
    def attach_client(self, server: Server) -> None:
        """Connect a client server's FPGA to every service member and
        arm fast failure detection."""
        self._clients[server.host_index] = server
        for host in self.hosts:
            self.cloud.connect(server.host_index, host)
        server.shell.on_remote_failure = lambda host: \
            self._on_remote_failure(server, host)
        server.shell.on_remote_degraded = self._on_remote_degraded

    def request(self, client: Server, payload: Any,
                length_bytes: int) -> int:
        """Send one request from ``client`` to the next pool member.

        Returns the host index the request was dispatched to.
        """
        if client.host_index not in self._clients:
            raise RuntimeError("attach_client() before request()")
        host = self.sm.pick()
        lease = self.sm.lease_of(host)
        if lease is not None:
            manager = self.cloud.resource_manager.manager(host)
            if not manager.admit_traffic(lease.fence):
                # Our lease on this host was superseded (we may be the
                # stale side of a split brain): drop the member rather
                # than send traffic into someone else's allocation.
                raise RuntimeError(
                    f"service {self.name!r} lease on host {host} is "
                    f"fenced off (stale fence {lease.fence})")
        self.cloud.connect(client.host_index, host)  # idempotent
        client.shell.remote_send(host, payload, length_bytes)
        self.requests_sent += 1
        return host

    # ------------------------------------------------------------------
    def _on_remote_failure(self, client: Server, failed_host: int) -> None:
        """A client's LTL declared a member dead: feed HaaS, reconnect."""
        self.failovers += 1
        rm = self.cloud.resource_manager
        try:
            manager = rm.manager(failed_host)
        except KeyError:
            return
        if manager.health.value != "failed":
            # Soft declaration: the FM monitor rehabilitates the node if
            # the cause turns out to be transient (flap, gray episode);
            # the RM quarantine keeps it benched meanwhile.
            manager.mark_failed(
                f"LTL timeouts reported by client {client.host_index}",
                hard=False)  # triggers SM replacement via RM
        self._sync_members()

    def _on_remote_degraded(self, suspect_host: int) -> None:
        """A client's LTL saw repeated timeouts: report the member gray."""
        self.gray_reports += 1
        try:
            manager = self.cloud.resource_manager.manager(suspect_host)
        except KeyError:
            return
        manager.report_gray()

    def _on_replacement(self, _lease) -> None:
        """SM re-acquired a lost component (possibly after retries)."""
        self._sync_members()

    def _sync_members(self) -> None:
        """Re-install the handler on any replacement members and connect
        existing clients to them."""
        handler = getattr(self, "_handler", None)
        for host in self.hosts:
            if handler is not None:
                self.cloud.shell(host).role_receive = handler
            for attached in self._clients.values():
                self.cloud.connect(attached.host_index, host)
