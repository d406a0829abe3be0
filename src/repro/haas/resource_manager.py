"""The logically centralized Resource Manager (RM).

"A logically centralized Resource Manager tracks FPGA resources
throughout the datacenter ... FPGAs are allocated to each service from
Resource Manager's resource pool."  Failed nodes are removed from the
pool and any lease holding them is revoked so the owning Service Manager
can re-acquire capacity ("failing nodes are removed from the pool with
replacements quickly added").

Resilience model (see docs/architecture.md, "Control-plane resilience"):

* Every durable decision is appended to a write-ahead **journal**
  (:mod:`repro.haas.journal`) before it touches the in-memory tables,
  so :meth:`crash` / :meth:`restart` reconstruct the lease table by
  replay, reconciled against current FpgaManager health.
* Each restart bumps the RM **epoch**; lease IDs are epoch-scoped and
  every grant carries a monotonically increasing **fence** that
  FpgaManagers check, so a Service Manager stranded behind a partition
  cannot act on a host the recovered RM has re-leased.
* RPC-facing entry points (:meth:`rpc_dispatch`) deduplicate
  **idempotency tokens**: a retried or duplicated ``acquire`` returns
  the original grant instead of allocating twice.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, Callable, Dict, List, Optional, Tuple

from ..net.topology import ThreeTierTopology
from ..sim import Environment
from .constraints import Constraints, select_hosts
from .fpga_manager import FpgaHealth, FpgaManager
from .journal import Journal
from .leases import Lease, LeaseState, lease_id_for
from .rpc import RpcChannel, ServerUnavailable

#: Default lease duration (control-plane heartbeat scale, not data plane).
DEFAULT_LEASE_SECONDS = 300.0
#: How long a recently-failed host sits out before it can be leased again
#: — a flapping node must prove itself stable, not bounce straight back
#: into a service.
DEFAULT_QUARANTINE_SECONDS = 60.0
#: Idempotency tokens for closed leases are forgotten after this many
#: sweep periods — long past any retransmit horizon.
TOKEN_RETENTION_SWEEPS = 4
#: ...but never sooner than this: an aggressive sweep cadence must not
#: shrink the dedup horizon below the RPC retransmit window (a lossy
#: call can keep resending for several seconds).
TOKEN_RETENTION_MIN_SECONDS = 10.0


class AllocationError(Exception):
    """No feasible allocation for the requested constraints."""


class LeaseExpired(KeyError):
    """Renew rejected: the lease is already past ``expires_at``.

    Subclasses :class:`KeyError` so callers treating "unknown lease" and
    "dead lease" alike keep working.
    """


@dataclass
class RmStats:
    acquires: int = 0
    releases: int = 0
    revocations: int = 0
    failed_acquires: int = 0
    expirations: int = 0
    quarantines: int = 0
    renew_rejections: int = 0     # renews of already-expired leases
    deduped_acquires: int = 0     # retried acquires answered from cache
    deduped_releases: int = 0
    crashes: int = 0
    restarts: int = 0
    recovered_leases: int = 0


class ResourceManager:
    """Datacenter-wide FPGA pool with lease-based allocation."""

    def __init__(self, env: Environment, topology: ThreeTierTopology,
                 lease_duration: float = DEFAULT_LEASE_SECONDS,
                 sweep_period: float = 30.0,
                 quarantine_seconds: float = DEFAULT_QUARANTINE_SECONDS,
                 journal: Optional[Journal] = None):
        self.env = env
        self.topology = topology
        self.lease_duration = lease_duration
        self.quarantine_seconds = quarantine_seconds
        #: host -> time until which it may not be re-leased.
        self._quarantine_until: Dict[int, float] = {}
        self.stats = RmStats()
        self.journal = journal or Journal(name="rm")
        self.journal.bind_clock(lambda: self.env.now)
        self.epoch = 1
        self._lease_seq = 0
        self._fence = 0
        self._crashed = False
        self._managers: Dict[int, FpgaManager] = {}
        self._leases: Dict[int, Lease] = {}
        #: host -> lease_id for allocated hosts.
        self._allocation: Dict[int, int] = {}
        #: lease_id -> revocation callback (installed by the SM).
        self._revocation_handlers: Dict[
            int, Callable[[Lease, List[int]], None]] = {}
        #: idempotency token -> (lease_id, grant time).
        self._granted_tokens: Dict[str, Tuple[int, float]] = {}
        self._released_tokens: Dict[str, float] = {}
        self.journal.record("epoch", epoch=self.epoch)
        env.process(self._expiry_sweeper())
        self._sweep_period = sweep_period

    # ------------------------------------------------------------------
    # Registry
    # ------------------------------------------------------------------
    def register(self, manager: FpgaManager) -> None:
        host = manager.host
        if host in self._managers:
            raise ValueError(f"host {host} already registered")
        self._managers[host] = manager
        manager.on_failure = self._fm_failure_report
        manager.journal = self.journal
        self.journal.record("register", host=host)

    def manager(self, host: int) -> FpgaManager:
        return self._managers[host]

    def _fm_failure_report(self, host: int) -> None:
        """An FM reports its node failed.  A crashed RM misses the report;
        :meth:`restart` reconciles against FM health instead."""
        if not self._crashed:
            self._on_node_failure(host)

    # ------------------------------------------------------------------
    # Pool queries
    # ------------------------------------------------------------------
    def free_hosts(self) -> List[int]:
        now = self.env.now
        return [
            host for host, fm in self._managers.items()
            if host not in self._allocation
            and fm.health is FpgaHealth.HEALTHY
            and self._quarantine_until.get(host, 0.0) <= now]

    def in_quarantine(self, host: int) -> bool:
        return self._quarantine_until.get(host, 0.0) > self.env.now

    def is_allocated(self, host: int) -> bool:
        return host in self._allocation

    @property
    def pool_size(self) -> int:
        return len(self._managers)

    @property
    def allocated_count(self) -> int:
        return len(self._allocation)

    @property
    def crashed(self) -> bool:
        return self._crashed

    @property
    def fence(self) -> int:
        return self._fence

    # ------------------------------------------------------------------
    # Lease lifecycle
    # ------------------------------------------------------------------
    def _next_lease_id(self) -> int:
        self._lease_seq += 1
        return lease_id_for(self.epoch, self._lease_seq)

    def _next_fence(self) -> int:
        self._fence += 1
        return self._fence

    def acquire(self, service: str, constraints: Constraints,
                on_revoked: Optional[
                    Callable[[Lease, List[int]], None]] = None,
                token: Optional[str] = None) -> Lease:
        """Allocate a component; raises :class:`AllocationError` if
        infeasible."""
        if self._crashed:
            raise ServerUnavailable("resource manager is down")
        if token is not None:
            cached = self._granted_tokens.get(token)
            if cached is not None:
                lease = self._leases.get(cached[0])
                if lease is not None:
                    self.stats.deduped_acquires += 1
                    if on_revoked is not None:
                        self._revocation_handlers[lease.lease_id] = \
                            on_revoked
                    return lease
        hosts = select_hosts(self.topology, self.free_hosts(), constraints)
        if hosts is None:
            self.stats.failed_acquires += 1
            raise AllocationError(
                f"cannot satisfy {constraints} for service {service!r}")
        now = self.env.now
        lease = Lease(service=service, hosts=hosts,
                      constraints=constraints, granted_at=now,
                      duration=self.lease_duration,
                      lease_id=self._next_lease_id(),
                      rm_epoch=self.epoch, fence=self._next_fence())
        # WAL discipline: journal the grant before it takes effect.
        self.journal.record(
            "grant", lease_id=lease.lease_id, service=service,
            hosts=list(hosts), granted_at=now, duration=lease.duration,
            epoch=self.epoch, fence=lease.fence, token=token,
            constraints=constraints)
        self._leases[lease.lease_id] = lease
        for host in hosts:
            self._allocation[host] = lease.lease_id
            manager = self._managers[host]
            manager.allocated_to = service
            manager.install_fence(lease.fence)
        if on_revoked is not None:
            self._revocation_handlers[lease.lease_id] = on_revoked
        if token is not None:
            self._granted_tokens[token] = (lease.lease_id, now)
        self.stats.acquires += 1
        self.journal.maybe_snapshot(self._snapshot_state)
        return lease

    def release(self, lease: Lease) -> None:
        if self._crashed:
            raise ServerUnavailable("resource manager is down")
        # Look up our own record: under a lossy channel the caller holds
        # a copy, and a duplicated release must be a no-op.
        mine = self._leases.get(lease.lease_id)
        if mine is None or mine.state is not LeaseState.ACTIVE:
            if lease.state is LeaseState.ACTIVE:
                lease.state = LeaseState.RELEASED
            return
        self.journal.record("release", lease_id=mine.lease_id,
                            service=mine.service)
        mine.state = LeaseState.RELEASED
        lease.state = LeaseState.RELEASED
        self._fence_off(mine)
        self._free_hosts_of(mine)
        self._leases.pop(mine.lease_id, None)
        self._revocation_handlers.pop(mine.lease_id, None)
        self.stats.releases += 1

    def renew(self, lease: Lease) -> float:
        """Extend a live lease; returns the new ``granted_at``.

        Raises :class:`KeyError` for an unknown lease and
        :class:`LeaseExpired` (a ``KeyError``) for a lease that is past
        ``expires_at`` but not yet swept — renewing the dead must not
        resurrect them, or a stalled SM could keep hosts the RM already
        promised elsewhere.
        """
        if self._crashed:
            raise ServerUnavailable("resource manager is down")
        mine = self._leases.get(lease.lease_id)
        if mine is None:
            raise KeyError(f"unknown lease {lease.lease_id}")
        now = self.env.now
        if now >= mine.expires_at:
            self.stats.renew_rejections += 1
            self._expire(mine)
            raise LeaseExpired(
                f"lease {lease.lease_id} expired at {mine.expires_at}")
        self.journal.record("renew", lease_id=mine.lease_id,
                            granted_at=now)
        mine.renew(now)
        if lease is not mine:
            lease.granted_at = now
        return now

    def _free_hosts_of(self, lease: Lease) -> None:
        for host in lease.hosts:
            if self._allocation.get(host) == lease.lease_id:
                del self._allocation[host]
                manager = self._managers.get(host)
                if manager is not None:
                    manager.allocated_to = None

    def _fence_off(self, lease: Lease) -> None:
        """Install a fence barrier on the lease's hosts: any message
        still carrying this lease's fence is now stale there."""
        for host in lease.hosts:
            if self._allocation.get(host) != lease.lease_id:
                continue
            manager = self._managers.get(host)
            if manager is None:
                continue
            barrier = self._next_fence()
            self.journal.record("fence_barrier", host=host, fence=barrier)
            manager.install_fence(barrier)

    # ------------------------------------------------------------------
    # RPC server side
    # ------------------------------------------------------------------
    def rpc_dispatch(self, channel: RpcChannel, method: str,
                     payload: Dict[str, Any]) -> Any:
        """Dispatch one SM->RM call (the ``server`` of an
        :class:`~repro.haas.rpc.RpcChannel`).

        Retransmits and duplicates land here too; the idempotency-token
        tables make ``acquire``/``release`` exactly-once in effect.
        """
        if self._crashed:
            raise ServerUnavailable("resource manager is down")
        token = payload.get("token")
        if method == "acquire":
            on_revoked = payload.get("on_revoked")
            handler = None
            if on_revoked is not None:
                # Revocations travel back over the same unreliable
                # channel (server -> client push).
                handler = lambda lease, survivors: channel.push(
                    on_revoked, lease.lease_id, survivors)
            lease = self.acquire(payload["service"],
                                 payload["constraints"],
                                 on_revoked=handler, token=token)
            if channel.inline:
                return lease
            # The SM gets a *copy*: the two sides of a partition must
            # be able to diverge (that is what fencing defends against).
            return replace(lease, hosts=list(lease.hosts))
        if method == "release":
            if token is not None and token in self._released_tokens:
                self.stats.deduped_releases += 1
                return True
            lease = self._leases.get(payload["lease_id"])
            if lease is not None:
                self.release(lease)
            if token is not None:
                self._released_tokens[token] = self.env.now
            return True
        if method == "renew":
            lease = self._leases.get(payload["lease_id"])
            if lease is None:
                raise KeyError(f"unknown lease {payload['lease_id']}")
            return self.renew(lease)
        if method == "reattach":
            return self._reattach(channel, payload)
        if method == "epoch":
            return self.epoch
        raise ValueError(f"unknown RPC method {method!r}")

    def _reattach(self, channel: RpcChannel,
                  payload: Dict[str, Any]) -> Dict[str, Any]:
        """An SM re-binding after an RM restart (its revocation handlers
        died with the old process).  Returns which of its leases
        survived recovery; the SM replaces the rest."""
        on_revoked = payload.get("on_revoked")
        kept: Dict[int, float] = {}
        for lease_id in payload.get("lease_ids", []):
            lease = self._leases.get(lease_id)
            if lease is None or lease.state is not LeaseState.ACTIVE:
                continue
            kept[lease_id] = lease.granted_at
            if on_revoked is not None:
                self._revocation_handlers[lease_id] = \
                    lambda l, s: channel.push(on_revoked, l.lease_id, s)
        return {"kept": kept, "epoch": self.epoch}

    # ------------------------------------------------------------------
    # Crash / restart
    # ------------------------------------------------------------------
    def crash(self) -> None:
        """Kill the RM process: all in-memory state is gone; only the
        journal survives.  Calls raise :class:`ServerUnavailable` (which
        channels surface as timeouts) until :meth:`restart`."""
        if self._crashed:
            return
        self.journal.record("crash", epoch=self.epoch)
        self._crashed = True
        self.stats.crashes += 1
        self._leases.clear()
        self._allocation.clear()
        self._revocation_handlers.clear()
        self._granted_tokens.clear()
        self._released_tokens.clear()
        self._quarantine_until.clear()
        for manager in self._managers.values():
            manager.allocated_to = None

    def restart(self) -> int:
        """Bring the RM back: replay the journal, bump the epoch,
        reconcile recovered leases against live FpgaManager health.
        Returns the number of leases recovered."""
        if not self._crashed:
            return 0
        state = self.journal.replay(now=self.env.now)
        self.epoch = state.max_epoch + 1
        self._lease_seq = 0
        self._fence = state.max_fence
        self._quarantine_until = dict(state.quarantine)
        self.journal.record("restart", epoch=self.epoch,
                            replayed=state.replayed_records,
                            leases=len(state.leases))
        self.journal.record("epoch", epoch=self.epoch)
        now = self.env.now
        recovered = 0
        for lease_id, fields in state.leases.items():
            lease = Lease(service=fields["service"],
                          hosts=list(fields["hosts"]),
                          constraints=fields.get("constraints")
                          or Constraints(),
                          granted_at=fields["granted_at"],
                          duration=fields["duration"],
                          lease_id=lease_id,
                          rm_epoch=fields["epoch"],
                          fence=fields["fence"])
            token = fields.get("token")
            self._leases[lease_id] = lease
            for host in lease.hosts:
                self._allocation[host] = lease_id
                manager = self._managers.get(host)
                if manager is not None:
                    manager.allocated_to = lease.service
                    manager.install_fence(lease.fence)
            if token is not None:
                self._granted_tokens[token] = (lease_id,
                                               fields["granted_at"])
            recovered += 1
        self._crashed = False
        self.stats.restarts += 1
        self.stats.recovered_leases += recovered
        # Reconcile against the world as it is *now*: hosts that died or
        # vanished while the RM was down get their leases revoked the
        # normal way (quarantine + replacement).
        for lease in list(self._leases.values()):
            for host in list(lease.hosts):
                manager = self._managers.get(host)
                if manager is None:
                    self._evict(host)
                elif manager.health is not FpgaHealth.HEALTHY:
                    self._on_node_failure(host)
        # Recovered leases keep their old expiry; unreachable SMs will
        # simply fail to renew and the sweeper reclaims their hosts.
        self.journal.snapshot(self._snapshot_state())
        return recovered

    def _snapshot_state(self) -> Dict[str, Any]:
        return {
            "leases": {
                lease.lease_id: {
                    "service": lease.service,
                    "hosts": list(lease.hosts),
                    "granted_at": lease.granted_at,
                    "duration": lease.duration,
                    "epoch": lease.rm_epoch,
                    "fence": lease.fence,
                    "constraints": lease.constraints,
                    "token": next(
                        (tok for tok, (lid, _t)
                         in self._granted_tokens.items()
                         if lid == lease.lease_id), None),
                }
                for lease in self._leases.values()
            },
            "quarantine": dict(self._quarantine_until),
            "registered": sorted(self._managers),
            "max_fence": self._fence,
            "max_epoch": self.epoch,
        }

    # ------------------------------------------------------------------
    # Failure / expiry
    # ------------------------------------------------------------------
    def _on_node_failure(self, host: int) -> None:
        # Quarantine first, evict second: the replacement acquire running
        # inside the revocation handler must not pick the failed host.
        until = self.env.now + self.quarantine_seconds
        self._quarantine_until[host] = until
        self.journal.record("quarantine", host=host, until=until)
        self.stats.quarantines += 1
        self._evict(host)

    def _evict(self, host: int) -> None:
        lease_id = self._allocation.get(host)
        if lease_id is None:
            return
        lease = self._leases.get(lease_id)
        if lease is None:
            self._allocation.pop(host, None)
            return
        self.journal.record("revoke", lease_id=lease_id,
                            service=lease.service, cause_host=host)
        lease.state = LeaseState.REVOKED
        self.stats.revocations += 1
        remaining = [h for h in lease.hosts if h != host
                     and self._allocation.get(h) == lease_id]
        # Free the survivors too: the SM re-acquires a whole component
        # (simplest correct semantics for component-granularity leases).
        self._fence_off(lease)
        self._free_hosts_of(lease)
        self._leases.pop(lease_id, None)
        handler = self._revocation_handlers.pop(lease_id, None)
        if handler is not None:
            handler(lease, remaining)

    def _expire(self, lease: Lease) -> None:
        self.journal.record("expire", lease_id=lease.lease_id,
                            service=lease.service)
        lease.state = LeaseState.EXPIRED
        self.stats.expirations += 1
        self._fence_off(lease)
        self._free_hosts_of(lease)
        self._leases.pop(lease.lease_id, None)
        handler = self._revocation_handlers.pop(lease.lease_id, None)
        if handler is not None:
            handler(lease, [])

    def _expiry_sweeper(self):
        while True:
            yield self.env.timeout(self._sweep_period)
            if self._crashed:
                continue
            now = self.env.now
            for lease in list(self._leases.values()):
                if lease.state is LeaseState.ACTIVE and \
                        now >= lease.expires_at:
                    self._expire(lease)
            # Prune expired quarantine entries: long soaks must not leak
            # one dict entry per ever-quarantined host.
            for host in [h for h, until in self._quarantine_until.items()
                         if until <= now]:
                del self._quarantine_until[host]
            # Forget idempotency tokens for long-closed grants.
            horizon = now - max(
                TOKEN_RETENTION_SWEEPS * self._sweep_period,
                TOKEN_RETENTION_MIN_SECONDS)
            for token in [t for t, (lid, at)
                          in self._granted_tokens.items()
                          if lid not in self._leases and at <= horizon]:
                del self._granted_tokens[token]
            for token in [t for t, at in self._released_tokens.items()
                          if at <= horizon]:
                del self._released_tokens[token]
            self.journal.maybe_snapshot(self._snapshot_state)
