"""Service Managers (SM).

"Each service has a Service Manager node to administer the service on the
allocated resources.  SMs manage service-level tasks such as load
balancing, inter-component connectivity, and failure handling by
requesting and releasing Component leases through RM.  A SM provides
pointers to the hardware service to one or more end users."

All SM<->RM traffic rides an :class:`~repro.haas.rpc.RpcChannel`, so
every call is asynchronous: :meth:`ServiceManager.grow` returns at once
and leases are adopted as their grants arrive.  The SM holds *copies*
of its leases, learns about revocations via best-effort pushes,
discovers RM restarts through the epoch carried on every response (then
re-attaches), and treats a renew rejected with ``KeyError`` as a lost
component to replace.  An acquire the RM refuses or never answers
leaves the component pending; one retry at a time asks again, with
exponential backoff.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional

from ..fpga.reconfig import Image
from ..sim import Environment
from .constraints import Constraints
from .leases import Lease, LeaseState
from .resource_manager import ResourceManager
from .rpc import RpcChannel, RpcConfig


@dataclass
class SmStats:
    components_acquired: int = 0
    components_lost: int = 0
    replacements: int = 0
    requests_dispatched: int = 0
    renew_failures: int = 0       # transport-level (timeout/partition)
    leases_lost_on_renew: int = 0  # RM said KeyError: lease is gone
    rm_epoch_changes: int = 0


class ServiceManager:
    """Administers one hardware service on leased components."""

    def __init__(self, env: Environment, name: str, rm: ResourceManager,
                 image: Image, constraints: Optional[Constraints] = None,
                 retry_backoff: float = 0.5,
                 retry_backoff_max: float = 60.0,
                 rpc_config: Optional[RpcConfig] = None,
                 rpc_seed: Optional[object] = None):
        self.env = env
        self.name = name
        self.rm = rm
        self.image = image
        self.constraints = constraints or Constraints()
        self.stats = SmStats()
        self.leases: List[Lease] = []
        self._rr = 0
        #: Components the SM has not yet managed to acquire (pool
        #: exhausted, or the RM unreachable); a retry keeps asking until
        #: the pool frees up.
        self.pending_replacements = 0
        self.retry_backoff = retry_backoff
        self.retry_backoff_max = retry_backoff_max
        #: Wait before the next retry: doubled after each failed retry
        #: (up to ``retry_backoff_max``), reset by a successful one.
        self._retry_interval = retry_backoff
        #: True while pending replacements have a retry armed or in
        #: flight — only one at a time.
        self._retrying = False
        #: Called with the replacement lease after a lost component is
        #: re-acquired — services hook this to rewire connectivity.
        self.on_component_replaced: Optional[Callable[[Lease], None]] = None
        #: Heartbeats are skipped until this time (control-plane stalls).
        self.heartbeat_suspended_until = 0.0
        self.channel = RpcChannel(env, rm.rpc_dispatch,
                                  name=f"sm-{name}", config=rpc_config,
                                  seed=rpc_seed)
        self.channel.epoch_probe = lambda: rm.epoch
        self.channel.on_epoch_change = self._on_rm_epoch_change

    def _acquire_payload(self) -> Dict[str, Any]:
        return {"service": self.name, "constraints": self.constraints,
                "on_revoked": self._on_lease_revoked}

    # ------------------------------------------------------------------
    # Capacity management
    # ------------------------------------------------------------------
    def grow(self, components: int = 1) -> None:
        """Acquire more components and deploy the service image on them.

        Returns at once: leases are adopted as their grants arrive, and
        a grow the RM cannot satisfy becomes a pending replacement.
        """
        for _ in range(components):
            self._acquire(replacement=False)

    def shrink(self, components: int = 1) -> None:
        """Release components back to the global pool."""
        for _ in range(min(components, len(self.leases))):
            lease = self.leases.pop()
            self.channel.notify("release", {"lease_id": lease.lease_id})
            # Our copy is dead to us even if the notify leg is lost (the
            # RM-side lease then just expires unrenewed).
            lease.state = LeaseState.RELEASED

    def _adopt_lease(self, lease: Lease, replacement: bool) -> None:
        self.leases.append(lease)
        if replacement:
            self.stats.replacements += 1
        else:
            self.stats.components_acquired += 1
        for host in lease.hosts:
            self.env.process(
                self.rm.manager(host).configure(self.image, fence=lease.fence))
        if replacement and self.on_component_replaced is not None:
            self.on_component_replaced(lease)

    def _acquire(self, replacement: bool) -> None:
        self.channel.call(
            "acquire", self._acquire_payload(),
            on_result=lambda lease: self._adopt_lease(lease, replacement),
            on_error=self._acquire_failed)

    @property
    def hosts(self) -> List[int]:
        """All FPGAs currently serving this service."""
        out: List[int] = []
        for lease in self.leases:
            if lease.is_active(self.env.now):
                out.extend(lease.hosts)
        return out

    def lease_of(self, host: int) -> Optional[Lease]:
        for lease in self.leases:
            if host in lease.hosts:
                return lease
        return None

    # ------------------------------------------------------------------
    # End-user facing
    # ------------------------------------------------------------------
    def pick(self) -> int:
        """Round-robin load balancing across the service's FPGAs."""
        hosts = self.hosts
        if not hosts:
            raise RuntimeError(f"service {self.name!r} has no capacity")
        host = hosts[self._rr % len(hosts)]
        self._rr += 1
        self.stats.requests_dispatched += 1
        return host

    # ------------------------------------------------------------------
    # Failure handling
    # ------------------------------------------------------------------
    def _on_lease_revoked(self, lease_id: int,
                          survivors: List[int]) -> None:
        """Revocation push from the RM (delivered over the channel, so
        it may arrive late, duplicated, or — behind a partition — never;
        renew failures and epoch re-attach are the backstops)."""
        lease = next((l for l in self.leases
                      if l.lease_id == lease_id), None)
        if lease is None:
            return
        lease.state = LeaseState.REVOKED
        self._on_revoked(lease, survivors)

    def _on_revoked(self, lease: Lease, _survivors: List[int]) -> None:
        """RM revoked a component (failure/expiry): replace it."""
        if lease in self.leases:
            self.leases.remove(lease)
        self.stats.components_lost += 1
        self._acquire(replacement=True)

    def _acquire_failed(self, _exc: Exception) -> None:
        """The RM refused an acquire (``AllocationError``) or never
        answered it (``RpcTimeout``): the component goes pending, and a
        retry is armed unless one already is."""
        self.pending_replacements += 1
        if not self._retrying:
            self._retrying = True
            self.env.call_later(self._retry_interval, self._retry)

    def _retry(self) -> None:
        self.channel.call("acquire", self._acquire_payload(),
                          on_result=self._retry_succeeded,
                          on_error=self._retry_failed)

    def _retry_succeeded(self, lease: Lease) -> None:
        self.pending_replacements -= 1
        self._retry_interval = self.retry_backoff
        self._adopt_lease(lease, replacement=True)
        if self.pending_replacements > 0:
            self._retry()  # the pool had room: try the next one now
        else:
            self._retrying = False

    def _retry_failed(self, _exc: Exception) -> None:
        self._retry_interval = min(self._retry_interval * 2,
                                   self.retry_backoff_max)
        self.env.call_later(self._retry_interval, self._retry)

    # ------------------------------------------------------------------
    # Heartbeat / lease maintenance
    # ------------------------------------------------------------------
    def renew_all(self) -> None:
        """Heartbeat: keep all ACTIVE component leases alive.

        Leases the SM already knows are dead are skipped.  A renew the
        RM rejects with ``KeyError`` (revoked/expired behind our back —
        e.g. while we were partitioned) means the component is *gone*:
        drop it and seek a replacement.  Transport failures are counted
        and left alone — the lease either survives to the next beat or
        the KeyError path catches it after the partition heals.
        """
        for lease in list(self.leases):
            if lease.state is not LeaseState.ACTIVE:
                continue
            self.channel.call(
                "renew", {"lease_id": lease.lease_id},
                on_result=lambda at, l=lease: self._renewed(l, at),
                on_error=lambda exc, l=lease: self._renew_failed(l, exc))

    def _renewed(self, lease: Lease, granted_at: float) -> None:
        if lease.state is LeaseState.ACTIVE:
            lease.granted_at = granted_at

    def _renew_failed(self, lease: Lease, exc: Exception) -> None:
        if isinstance(exc, KeyError):
            # The RM no longer honors this lease.  If a revocation push
            # got here first the lease is already gone from our table.
            if lease in self.leases:
                lease.state = LeaseState.EXPIRED
                self.stats.leases_lost_on_renew += 1
                self._on_revoked(lease, [])
            return
        self.stats.renew_failures += 1

    def suspend_heartbeat(self, duration: float) -> None:
        """Stall the control plane: skip heartbeats for ``duration``."""
        self.heartbeat_suspended_until = max(
            self.heartbeat_suspended_until, self.env.now + duration)

    def start_heartbeat(self, period: Optional[float] = None) -> None:
        """Renew leases periodically (default: half the lease duration)."""
        if period is None:
            period = self.rm.lease_duration / 2
        if period <= 0:
            raise ValueError("heartbeat period must be positive")

        def beat(env):
            while True:
                yield env.timeout(period)
                if env.now < self.heartbeat_suspended_until:
                    continue
                self.renew_all()

        self.env.process(beat(self.env))

    # ------------------------------------------------------------------
    # RM restart handling
    # ------------------------------------------------------------------
    def _on_rm_epoch_change(self, _epoch: int) -> None:
        """The RM restarted (every response carries its epoch): its
        revocation handlers died with the old process, so re-attach our
        surviving leases and replace the ones recovery dropped."""
        self.stats.rm_epoch_changes += 1
        lease_ids = [lease.lease_id for lease in self.leases
                     if lease.state is LeaseState.ACTIVE]
        self.channel.call(
            "reattach",
            {"lease_ids": lease_ids,
             "on_revoked": self._on_lease_revoked},
            on_result=self._apply_reattach,
            on_error=lambda _exc: None)

    def _apply_reattach(self, result: Dict[str, Any]) -> None:
        kept = result["kept"]
        for lease in list(self.leases):
            if lease.state is not LeaseState.ACTIVE:
                continue
            if lease.lease_id in kept:
                lease.granted_at = kept[lease.lease_id]
            else:
                lease.state = LeaseState.REVOKED
                self._on_revoked(lease, [])
