"""The per-node FPGA Manager (FM).

"An FPGA Manager runs on each node to provide configuration and status
monitoring for the system."  The FM is the only HaaS component that
touches the shell directly: it loads role images on behalf of Service
Managers, reports health to the Resource Manager, and runs a periodic
health monitor that escalates HEALTHY -> DEGRADED -> FAILED from shell and
bridge state — covering gray (slow) nodes reported by peers, SEU role
hangs, links down outside reconfiguration, dead boards, and network
detachment.  A DEGRADED node is evicted from its lease and auto-repaired
with :meth:`recover` (power-cycle to golden); a FAILED node whose failure
cause clears (e.g. a transient link flap ends) is likewise repaired and
returned to the pool.
"""

from __future__ import annotations

import enum
from typing import Callable, List, Optional, Tuple

from ..fpga.reconfig import Image
from ..fpga.shell import Shell
from ..sim import Environment

#: Health-monitor scan period (control-plane scale).
MONITOR_PERIOD_SECONDS = 2.0
#: Peer gray reports within the window needed before declaring DEGRADED —
#: one transient timeout episode must not power-cycle a healthy node.
GRAY_REPORT_THRESHOLD = 2
GRAY_REPORT_WINDOW_SECONDS = 1.0


class FpgaHealth(enum.Enum):
    HEALTHY = "healthy"
    DEGRADED = "degraded"     # soft errors above threshold
    FAILED = "failed"


class FpgaManager:
    """One node's configuration/monitoring agent."""

    def __init__(self, env: Environment, shell: Shell):
        self.env = env
        self.shell = shell
        self.health = FpgaHealth.HEALTHY
        self.allocated_to: Optional[str] = None
        self.configurations = 0
        self.recoveries = 0
        #: Newest fencing token installed for this host (by lease grants
        #: and by the RM's fence barriers at evict/release/expire time).
        #: Operations carrying an older fence are rejected: that caller
        #: is acting on a lease the RM has since superseded.
        self.fence = 0
        self.fence_rejections = 0
        #: RM journal, attached at registration, so fence rejections are
        #: auditable evidence in the campaign record.
        self.journal = None
        #: RM's failure callback, installed at registration.
        self.on_failure: Optional[Callable[[int], None]] = None
        #: Observer hook: (manager, old_health, new_health, reason).
        self.on_health_change: Optional[Callable[
            ["FpgaManager", FpgaHealth, FpgaHealth, str], None]] = None
        #: (time, old, new, reason) history of health transitions.
        self.transitions: List[
            Tuple[float, FpgaHealth, FpgaHealth, str]] = []
        self.gray_report_threshold = GRAY_REPORT_THRESHOLD
        self.gray_report_window = GRAY_REPORT_WINDOW_SECONDS
        self._gray_reports: List[float] = []
        self._recovering = False
        env.process(self._monitor())

    @property
    def host(self) -> int:
        return self.shell.host_index

    def install_fence(self, fence: int) -> None:
        """Raise this host's fence floor (monotonic)."""
        self.fence = max(self.fence, fence)

    def _check_fence(self, fence: Optional[int], op: str) -> bool:
        if fence is None or fence >= self.fence:
            return True
        self.fence_rejections += 1
        if self.journal is not None:
            self.journal.record("fence_reject", host=self.host,
                                op=op, fence=fence, current=self.fence)
        return False

    def admit_traffic(self, fence: Optional[int] = None) -> bool:
        """Data-plane admission: False iff the caller's fence is stale
        (its lease was superseded — likely a split-brain survivor)."""
        return self._check_fence(fence, "traffic")

    def configure(self, image: Image, fence: Optional[int] = None):
        """Process: deploy a role image (partial reconfiguration, so the
        bridge keeps passing packets during the swap).

        A stale ``fence`` makes this a recorded no-op rather than an
        exception: the caller is on the wrong side of a partition and
        must not overwrite whatever the host's new owner deployed.
        """
        if not self._check_fence(fence, "configure"):
            return
        yield from self.shell.configuration.partial_reconfigure(image)
        self.configurations += 1

    # ------------------------------------------------------------------
    # Health transitions
    # ------------------------------------------------------------------
    def _set_health(self, new: FpgaHealth, reason: str) -> None:
        if new is self.health:
            return
        old = self.health
        self.health = new
        self.transitions.append((self.env.now, old, new, reason))
        if self.on_health_change is not None:
            self.on_health_change(self, old, new, reason)

    def recover(self):
        """Process: power-cycle to the golden image (last-resort repair).

        On completion the node is HEALTHY again unless the underlying
        cause persists (dead board or detached from the fabric).
        """
        self._recovering = True
        try:
            yield from self.shell.configuration.power_cycle()
            self.recoveries += 1
        finally:
            self._recovering = False
        # Reloading the full configuration clears any SEU-wedged role.
        scrubber = self.shell.scrubber
        if scrubber is not None and scrubber.role_hung:
            scrubber.role_hung = False
            scrubber.stats.recoveries += 1
        if self.shell.board.usable and \
                self.shell.fabric.is_attached(self.host):
            self._set_health(FpgaHealth.HEALTHY, "power-cycle repair")
        else:
            self._set_health(FpgaHealth.FAILED,
                             "power-cycle did not clear the fault")

    def mark_failed(self, reason: str = "declared failed by FM",
                    hard: bool = True) -> None:
        """Declare this FPGA dead.

        ``hard=True`` (operator/board-level death) poisons the board so the
        node never returns to the pool.  ``hard=False`` records an
        observed failure (e.g. peers' LTL timeouts) that the monitor may
        repair later if the cause turns out to be transient.
        """
        self._set_health(FpgaHealth.FAILED, reason)
        if hard:
            self.shell.board.mark_hard_failure(reason)
        if self.on_failure is not None:
            self.on_failure(self.host)

    def report_gray(self) -> None:
        """A peer suspects this node is gray (slow).  Enough reports in a
        short window escalate to DEGRADED and trigger repair."""
        now = self.env.now
        self._gray_reports.append(now)
        self._gray_reports = [
            t for t in self._gray_reports
            if now - t <= self.gray_report_window]
        if len(self._gray_reports) >= self.gray_report_threshold and \
                self.health is FpgaHealth.HEALTHY:
            self._set_health(FpgaHealth.DEGRADED,
                             "gray-failure reports from peers")
            self._escalate_degraded()

    def _escalate_degraded(self) -> None:
        """Evict the node from its lease and start repair."""
        if self.on_failure is not None:
            self.on_failure(self.host)
        if not self._recovering and \
                not self.shell.configuration.reconfiguring:
            self.env.process(self.recover())

    # ------------------------------------------------------------------
    # Periodic health monitor
    # ------------------------------------------------------------------
    def _monitor(self):
        while True:
            yield self.env.timeout(MONITOR_PERIOD_SECONDS)
            self._scan()

    def _scan(self) -> None:
        shell = self.shell
        if self._recovering or shell.configuration.reconfiguring:
            return  # legitimate downtime; don't misdiagnose it
        if not shell.board.usable:
            if self.health is not FpgaHealth.FAILED:
                self.mark_failed("board hard failure", hard=False)
            return
        if not shell.fabric.is_attached(self.host):
            if self.health is not FpgaHealth.FAILED:
                self.mark_failed("network unreachable", hard=False)
            return
        if self.health is FpgaHealth.FAILED:
            # The failure cause has cleared (e.g. link flap ended):
            # repair and let the RM's quarantine gate re-admission.
            self.env.process(self.recover())
            return
        reason = None
        if not shell.bridge.link_up:
            reason = "link down outside reconfiguration"
        elif shell.scrubber is not None and shell.scrubber.role_hung:
            reason = "role hung (SEU)"
        if reason is not None and self.health is FpgaHealth.HEALTHY:
            self._set_health(FpgaHealth.DEGRADED, reason)
        if self.health is FpgaHealth.DEGRADED:
            self._escalate_degraded()
