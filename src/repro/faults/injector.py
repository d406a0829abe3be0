"""The fault injector: runs campaigns against a live ConfigurableCloud.

Every :class:`FaultEvent` becomes a real attack on the simulated
datacenter — detaching hosts from their TOR, corrupting or dropping
frames on the TOR->host hop, delaying deliveries (gray node), wedging
role regions, or stalling the control plane — and the injector then
*watches the system defend itself*, stamping when each fault was
detected and when service was restored.

Detection/recovery attribution per kind:

===============  ==========================================  =============
kind             detected when                               recovered when
===============  ==========================================  =============
FPGA_DEATH       FM leaves HEALTHY (LTL report or monitor)   SM replaces the
                                                             lost component
                                                             (or at detection
                                                             if the host was
                                                             unallocated)
LINK_FLAP        FM leaves HEALTHY                           FM back HEALTHY
GRAY_NODE        FM leaves HEALTHY (peer gray reports)       FM back HEALTHY
ROLE_HANG        FM leaves HEALTHY (scrubber flag)           FM back HEALTHY
TOR_OUTAGE       first affected FM leaves HEALTHY            every affected
                                                             FM back HEALTHY
FRAME_CORRUPT    LTL checksum drops observed at the victim   masked online by
                                                             LTL retransmit
FRAME_DROP       retransmissions observed fleet-wide         masked online by
                                                             LTL retransmit
CONTROL_STALL    RM lease expirations observed               SMs drain their
                                                             pending
                                                             replacements
SLOW_PEER        tap removal (frames observably slowed; the  masked online by
                 victim never fails a health check — that    delivery; ends
                 is the point of a limplock)                 with ``duration``
RM_CRASH         immediately (process death is visible to    restarted RM
                 its supervisor)                             answers its first
                                                             acquire (journal
                                                             replay done)
NETWORK_PARTITION lease expirations / failed renews at the   stranded SM back
                 stranded SM                                 to full strength
                                                             (no pending
                                                             replacements)
===============  ==========================================  =============
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, replace as dc_replace
from typing import Dict, List, Optional, Sequence, Set

from ..core.cloud import ConfigurableCloud
from ..fpga.seu import SeuScrubber
from ..haas.constraints import Constraints
from ..haas.fpga_manager import FpgaHealth, FpgaManager
from ..haas.resource_manager import AllocationError
from ..haas.service_manager import ServiceManager
from ..ltl.frames import LtlFrame
from .campaign import FaultEvent, FaultKind

#: XOR-ed into a frame's checksum to model wire corruption.
_CORRUPTION_MASK = 0x5A5A5A5A

#: Kinds whose detection/recovery is observed through FM health
#: transitions on the affected host(s).
_HEALTH_WATCHED = frozenset({
    FaultKind.FPGA_DEATH, FaultKind.LINK_FLAP, FaultKind.GRAY_NODE,
    FaultKind.ROLE_HANG, FaultKind.TOR_OUTAGE,
})


@dataclass
class InjectionRecord:
    """One injected fault and the system's observed response."""

    event: FaultEvent
    injected_at: float
    detected_at: Optional[float] = None
    recovered_at: Optional[float] = None
    note: str = ""
    #: Hosts whose FM health this record watches.
    affected: List[int] = field(default_factory=list)
    #: Detection alone closes the record (e.g. death of an idle host:
    #: the pool evicting it is the whole remedy).
    recover_on_detect: bool = False
    #: Recovery is an SM component replacement, not an FM transition.
    awaiting_replacement: bool = False

    @property
    def detection_latency(self) -> Optional[float]:
        if self.detected_at is None:
            return None
        return self.detected_at - self.injected_at

    @property
    def recovery_latency(self) -> Optional[float]:
        if self.recovered_at is None:
            return None
        return self.recovered_at - self.injected_at

    @property
    def resolved(self) -> bool:
        return self.detected_at is not None and \
            self.recovered_at is not None


@dataclass
class InjectorStats:
    injections: Dict[str, int] = field(default_factory=dict)
    frames_corrupted: int = 0
    frames_dropped: int = 0
    frames_delayed: int = 0
    frames_slowed: int = 0

    def count(self, kind: FaultKind) -> None:
        self.injections[kind.value] = \
            self.injections.get(kind.value, 0) + 1


class FaultInjector:
    """Deterministic fault injection against a live cloud.

    ``hosts`` is the campaign's blast radius (usually the HaaS pool);
    ``service_managers`` are watched for component replacements and are
    the control-stall victims.
    """

    def __init__(self, cloud: ConfigurableCloud,
                 hosts: Sequence[int],
                 service_managers: Sequence[ServiceManager] = (),
                 seed: int = 0):
        self.cloud = cloud
        self.env = cloud.env
        self.hosts = list(hosts)
        self.service_managers = list(service_managers)
        self.rng = random.Random(seed)
        self.records: List[InjectionRecord] = []
        self.stats = InjectorStats()
        #: host -> open (unresolved) health-watched records.
        self._open: Dict[int, List[InjectionRecord]] = {}
        #: Hosts permanently killed by FPGA_DEATH (never reattached).
        self._killed: Set[int] = set()
        self._watching = False
        #: Round-robin cursor over SMs for NETWORK_PARTITION victims.
        self._partition_rr = 0

    # ------------------------------------------------------------------
    # Campaign driving
    # ------------------------------------------------------------------
    def run_campaign(self, events: Sequence[FaultEvent]) -> None:
        """Schedule every event; effects unfold as the env runs."""
        self._ensure_watch()
        for event in events:
            self.env.process(self._scheduled(event))

    def _scheduled(self, event: FaultEvent):
        delay = event.at - self.env.now
        yield self.env.timeout(max(delay, 0.0))
        self.inject(event)

    def inject(self, event: FaultEvent) -> InjectionRecord:
        """Fire one fault now; returns its (live) record."""
        self._ensure_watch()
        record = InjectionRecord(event=event, injected_at=self.env.now)
        self.records.append(record)
        self.stats.count(event.kind)
        if event.kind in _HEALTH_WATCHED:
            record.affected = self._targets_of(event)
            for host in record.affected:
                self._open.setdefault(host, []).append(record)
            # A fault landing on already-unhealthy target(s) produces no
            # fresh health transition: the system already knows.
            if record.affected and all(
                    self._health_of(h) is not FpgaHealth.HEALTHY
                    for h in record.affected):
                record.detected_at = record.injected_at
                record.note += "target already unhealthy at injection"
        self.env.process(self._execute(event, record))
        return record

    def _targets_of(self, event: FaultEvent) -> List[int]:
        if event.kind is FaultKind.TOR_OUTAGE:
            topo = self.cloud.fabric.topology
            victim = topo.coords(event.target)
            return [h for h in self.hosts
                    if topo.coords(h).pod == victim.pod
                    and topo.coords(h).tor == victim.tor
                    and h not in self._killed]
        return [event.target]

    # ------------------------------------------------------------------
    # Fault primitives
    # ------------------------------------------------------------------
    def _execute(self, event: FaultEvent, record: InjectionRecord):
        kind = event.kind
        if kind is FaultKind.FPGA_DEATH:
            yield from self._do_death(event, record)
        elif kind is FaultKind.LINK_FLAP:
            yield from self._do_flap(event, record)
        elif kind is FaultKind.TOR_OUTAGE:
            yield from self._do_tor_outage(event, record)
        elif kind is FaultKind.GRAY_NODE:
            yield from self._do_gray(event, record)
        elif kind is FaultKind.FRAME_CORRUPT:
            yield from self._do_corrupt(event, record)
        elif kind is FaultKind.FRAME_DROP:
            yield from self._do_drop(event, record)
        elif kind is FaultKind.ROLE_HANG:
            yield from self._do_role_hang(event, record)
        elif kind is FaultKind.CONTROL_STALL:
            yield from self._do_control_stall(event, record)
        elif kind is FaultKind.SLOW_PEER:
            yield from self._do_slow_peer(event, record)
        elif kind is FaultKind.RM_CRASH:
            yield from self._do_rm_crash(event, record)
        elif kind is FaultKind.NETWORK_PARTITION:
            yield from self._do_network_partition(event, record)
        else:  # pragma: no cover - exhaustive over FaultKind
            raise ValueError(f"unknown fault kind {kind}")

    def _do_death(self, event: FaultEvent, record: InjectionRecord):
        host = event.target
        self._killed.add(host)
        rm = self.cloud.resource_manager
        if rm.is_allocated(host):
            record.awaiting_replacement = True
        else:
            record.recover_on_detect = True
        if self.cloud.fabric.is_attached(host):
            self.cloud.fabric.detach(host)
        record.note = f"host {host} silently dead; " + record.note
        if record.recover_on_detect and record.detected_at is not None:
            # Killed while free and already known-bad: eviction from the
            # pool is the whole remedy.
            record.recovered_at = self.env.now
            self._close(record)
        # A permanently dead host can never return HEALTHY: re-evaluate
        # any open record (e.g. a TOR outage) that was waiting on it.
        now = self.env.now
        for other in list(self._open.get(host, ())):
            self._maybe_recover(other, now)
        yield self.env.timeout(0)

    def _do_flap(self, event: FaultEvent, record: InjectionRecord):
        host = event.target
        fabric = self.cloud.fabric
        if not fabric.is_attached(host):
            record.note = (f"host {host} already detached; flap elided; "
                           + record.note)
            record.recover_on_detect = True
            if record.detected_at is not None and \
                    record.recovered_at is None:
                record.recovered_at = self.env.now
                self._close(record)
            return
        fabric.detach(host)
        yield self.env.timeout(event.duration)
        if host not in self._killed and not fabric.is_attached(host):
            fabric.reattach(host)
        record.note = f"host {host} link down {event.duration:.3f}s"

    def _do_tor_outage(self, event: FaultEvent, record: InjectionRecord):
        fabric = self.cloud.fabric
        downed = []
        for host in record.affected:
            if fabric.is_attached(host):
                fabric.detach(host)
                downed.append(host)
        yield self.env.timeout(event.duration)
        for host in downed:
            if host not in self._killed and not fabric.is_attached(host):
                fabric.reattach(host)
        record.note = (f"TOR of host {event.target} dark "
                       f"{event.duration:.3f}s; hosts {downed}")

    def _do_gray(self, event: FaultEvent, record: InjectionRecord):
        host = event.target
        fabric = self.cloud.fabric
        delay = event.magnitude

        def tap(packet):
            self.stats.frames_delayed += 1

            def redeliver():
                yield self.env.timeout(delay)
                fabric.inject_delivery(host, packet)

            self.env.process(redeliver())
            return None

        fabric.install_tap(host, tap)
        yield self.env.timeout(event.duration)
        fabric.remove_tap(host, tap)
        record.note = (f"host {host} deliveries delayed {delay * 1e6:.0f}us"
                       f" for {event.duration:.3f}s")

    def _do_corrupt(self, event: FaultEvent, record: InjectionRecord):
        host = event.target
        fabric = self.cloud.fabric
        probability = event.magnitude
        corrupted = 0

        def tap(packet):
            nonlocal corrupted
            frame = packet.payload
            if isinstance(frame, LtlFrame) and \
                    self.rng.random() < probability:
                # Corrupt a copy: the sender still holds this frame in
                # its unacked store for retransmission.
                packet.payload = dc_replace(
                    frame,
                    checksum=(frame.checksum or 0) ^ _CORRUPTION_MASK)
                corrupted += 1
                self.stats.frames_corrupted += 1
            return packet

        shell = self.cloud.shell(host)
        before = shell.ltl.stats.corrupt_dropped if shell.ltl else 0
        fabric.install_tap(host, tap)
        yield self.env.timeout(event.duration)
        fabric.remove_tap(host, tap)
        dropped = (shell.ltl.stats.corrupt_dropped - before) \
            if shell.ltl else 0
        now = self.env.now
        if corrupted == 0:
            # No traffic crossed the tap: the fault never manifested.
            record.detected_at = record.recovered_at = now
            record.note = f"host {host}: no frames crossed the tap"
        elif dropped > 0:
            record.detected_at = record.recovered_at = now
            record.note = (f"host {host}: {dropped}/{corrupted} corrupt "
                           "frames caught by LTL checksum, masked by "
                           "retransmission")
        else:
            record.note = (f"host {host}: {corrupted} corrupted frames "
                           "NOT caught")

    def _do_drop(self, event: FaultEvent, record: InjectionRecord):
        host = event.target
        fabric = self.cloud.fabric
        probability = event.magnitude
        dropped = 0

        def tap(packet):
            nonlocal dropped
            if self.rng.random() < probability:
                dropped += 1
                self.stats.frames_dropped += 1
                return None
            return packet

        before = self._fleet_retransmissions()
        fabric.install_tap(host, tap)
        yield self.env.timeout(event.duration)
        fabric.remove_tap(host, tap)
        # Give go-back-N a few retransmit-timeouts to observe the loss.
        shell = self.cloud.shell(host)
        rto = shell.ltl.config.retransmit_timeout if shell.ltl else 50e-6
        yield self.env.timeout(4 * rto)
        retx = self._fleet_retransmissions() - before
        now = self.env.now
        if dropped == 0:
            record.detected_at = record.recovered_at = now
            record.note = f"host {host}: no frames crossed the tap"
        elif retx > 0:
            record.detected_at = record.recovered_at = now
            record.note = (f"host {host}: {dropped} frames dropped, "
                           f"{retx} retransmissions masked the loss")
        else:
            record.note = f"host {host}: {dropped} drops unobserved"

    def _do_role_hang(self, event: FaultEvent, record: InjectionRecord):
        host = event.target
        shell = self.cloud.shell(host)
        if shell.scrubber is None:
            # The shell was built without SEU modeling; give it a quiet
            # scrubber (no spontaneous flips) so the hang is observable
            # and recoverable through the standard path.
            shell.scrubber = SeuScrubber(
                self.env, rng=random.Random(0),
                mean_seconds_between_flips=1e18)
        shell.scrubber.inject_flip(role_hang=True)
        record.note = f"host {host} role hung by SEU"
        yield self.env.timeout(0)

    def _do_control_stall(self, event: FaultEvent, record: InjectionRecord):
        rm = self.cloud.resource_manager
        before_exp = rm.stats.expirations
        for sm in self.service_managers:
            sm.suspend_heartbeat(event.duration)
        record.note = f"heartbeats suspended {event.duration:.1f}s"
        yield self.env.timeout(event.duration)
        # Wait out one sweep so any expiry is actually observed.
        yield self.env.timeout(rm._sweep_period)
        if rm.stats.expirations > before_exp:
            record.detected_at = self.env.now
            record.note += (f"; {rm.stats.expirations - before_exp} "
                            "leases expired")
            # Recovered once the SMs re-acquired everything they lost.
            deadline = self.env.now + 120.0
            while self.env.now < deadline:
                if all(sm.pending_replacements == 0
                       for sm in self.service_managers):
                    record.recovered_at = self.env.now
                    break
                yield self.env.timeout(0.5)
        else:
            # Leases survived the stall (duration < lease slack): the
            # fault never manifested.
            record.detected_at = record.recovered_at = self.env.now
            record.note += "; no leases expired"

    def _do_slow_peer(self, event: FaultEvent, record: InjectionRecord):
        """Limplock: the victim's NIC serves frames ``magnitude`` x
        slower without ever failing a health check.

        Modeled as extra per-frame delivery delay proportional to each
        frame's wire size: ``(magnitude - 1) * wire_time``.  Unlike a
        gray node the slowdown is load-dependent — big frames hurt more
        — and stays below any health threshold: the gray-failure shape.
        """
        host = event.target
        fabric = self.cloud.fabric
        factor = max(event.magnitude, 1.0)
        rate_bps = fabric.config.latency.host_rate_bps
        slowed = 0

        def tap(packet):
            nonlocal slowed
            slowed += 1
            self.stats.frames_slowed += 1
            extra = (factor - 1.0) * packet.wire_bytes * 8.0 / rate_bps

            def redeliver():
                yield self.env.timeout(extra)
                fabric.inject_delivery(host, packet)

            self.env.process(redeliver())
            return None

        fabric.install_tap(host, tap)
        yield self.env.timeout(event.duration)
        fabric.remove_tap(host, tap)
        now = self.env.now
        record.detected_at = record.recovered_at = now
        if slowed == 0:
            record.note = f"host {host}: no frames crossed the tap"
        else:
            record.note = (f"host {host}: {slowed} frames served "
                           f"{factor:.0f}x slow for {event.duration:.3f}s")

    def _do_rm_crash(self, event: FaultEvent, record: InjectionRecord):
        """Kill the RM process; restart it after ``duration``.

        Recovery is stamped at the restarted RM's *first successful
        acquire* (an :class:`AllocationError` counts — the RM answered,
        the pool just happened to be full), i.e. crash -> journal replay
        -> serving again.  :meth:`ResourceManager.restart` replays the
        journal synchronously, so the probe runs at the restart instant.
        """
        rm = self.cloud.resource_manager
        if rm.crashed:
            record.detected_at = record.recovered_at = self.env.now
            record.note = "RM already down; crash elided"
            yield self.env.timeout(0)
            return
        held = rm.allocated_count
        rm.crash()
        record.detected_at = self.env.now
        record.note = (f"RM down {event.duration:.1f}s "
                       f"({held} hosts were leased)")
        yield self.env.timeout(event.duration)
        recovered = rm.restart()
        try:
            lease = rm.acquire("__rm-probe__", Constraints(count=1))
        except AllocationError:
            pass  # RM is serving; the pool is just exhausted
        else:
            rm.release(lease)
        record.recovered_at = self.env.now
        record.note += (f"; replayed {len(rm.journal)} records, "
                        f"recovered {recovered} leases, serving again "
                        "at restart")

    def _do_network_partition(self, event: FaultEvent,
                              record: InjectionRecord):
        """Strand one SM: its channel drops everything both ways for
        ``duration`` — no renews out, no revocation pushes in."""
        if not self.service_managers:
            record.detected_at = record.recovered_at = self.env.now
            record.note = "no service managers; partition elided"
            yield self.env.timeout(0)
            return
        sm = self.service_managers[
            self._partition_rr % len(self.service_managers)]
        self._partition_rr += 1
        rm = self.cloud.resource_manager
        before_exp = rm.stats.expirations
        before_fail = sm.stats.renew_failures
        sm.channel.partition_for(event.duration)
        record.note = f"SM {sm.name!r} partitioned {event.duration:.1f}s"
        yield self.env.timeout(event.duration)
        # Wait out one sweep so any expiry is actually observed.
        yield self.env.timeout(rm._sweep_period)
        manifested = (rm.stats.expirations > before_exp
                      or sm.stats.renew_failures > before_fail)
        if not manifested:
            record.detected_at = record.recovered_at = self.env.now
            record.note += "; leases outlived the partition"
            return
        record.detected_at = self.env.now
        record.note += (f"; {rm.stats.expirations - before_exp} leases "
                        f"expired, {sm.stats.renew_failures - before_fail}"
                        " renews lost")
        # Recovered once the stranded SM is back to full strength.
        deadline = self.env.now + 120.0
        while self.env.now < deadline:
            if sm.pending_replacements == 0:
                record.recovered_at = self.env.now
                break
            yield self.env.timeout(0.5)

    def _fleet_retransmissions(self) -> int:
        # Sum over every server (not just the campaign hosts): dropping
        # deliveries to a victim makes its *peers* retransmit.
        total = 0
        for server in self.cloud.servers.values():
            if server.shell.ltl is not None:
                total += server.shell.ltl.stats.retransmissions
        return total

    # ------------------------------------------------------------------
    # Detection / recovery observation
    # ------------------------------------------------------------------
    def _ensure_watch(self) -> None:
        if self._watching:
            return
        self._watching = True
        rm = self.cloud.resource_manager
        for host in self.hosts:
            try:
                manager = rm.manager(host)
            except KeyError:
                continue
            self._chain_health(manager)
        for sm in self.service_managers:
            self._chain_replacement(sm)

    def _chain_health(self, manager: FpgaManager) -> None:
        previous = manager.on_health_change

        def chained(fm, old, new, reason):
            if previous is not None:
                previous(fm, old, new, reason)
            self._on_health_change(fm, old, new, reason)

        manager.on_health_change = chained

    def _chain_replacement(self, sm: ServiceManager) -> None:
        previous = sm.on_component_replaced

        def chained(lease):
            if previous is not None:
                previous(lease)
            self._on_component_replaced(lease)

        sm.on_component_replaced = chained

    def _on_health_change(self, fm: FpgaManager, old: FpgaHealth,
                          new: FpgaHealth, reason: str) -> None:
        now = self.env.now
        host = fm.host
        for record in list(self._open.get(host, ())):
            if new is not FpgaHealth.HEALTHY:
                if record.detected_at is None:
                    record.detected_at = now
                    record.note += f"; detected: {reason}"
                    if record.recover_on_detect:
                        record.recovered_at = now
                        self._close(record)
            else:
                self._maybe_recover(record, now)

    def _on_component_replaced(self, _lease) -> None:
        now = self.env.now
        for record in self.records:
            if record.awaiting_replacement and \
                    record.detected_at is not None and \
                    record.recovered_at is None:
                record.recovered_at = now
                record.awaiting_replacement = False
                self._close(record)
                break  # one replacement redeems one loss

    def _maybe_recover(self, record: InjectionRecord,
                       now: float) -> None:
        """Close a health-watched record once every affected host is
        either back HEALTHY or permanently dead (a killed host can never
        return — its own death record owns that loss)."""
        if record.detected_at is None or record.recovered_at is not None \
                or record.awaiting_replacement:
            return
        if all(h in self._killed
               or self._health_of(h) is FpgaHealth.HEALTHY
               for h in record.affected):
            record.recovered_at = now
            self._close(record)

    def _health_of(self, host: int) -> FpgaHealth:
        try:
            return self.cloud.resource_manager.manager(host).health
        except KeyError:
            return FpgaHealth.FAILED

    def _close(self, record: InjectionRecord) -> None:
        for host in record.affected:
            open_here = self._open.get(host)
            if open_here and record in open_here:
                open_here.remove(record)

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    def summary(self) -> Dict[str, object]:
        """Campaign outcome: counts and latency distributions."""
        detected = [r for r in self.records if r.detected_at is not None]
        recovered = [r for r in self.records
                     if r.recovered_at is not None]
        detection = sorted(r.detection_latency for r in detected)
        recovery = sorted(r.recovery_latency for r in recovered)

        def _stats(xs: List[float]) -> Dict[str, float]:
            if not xs:
                return {"count": 0}
            return {"count": len(xs), "mean": sum(xs) / len(xs),
                    "max": xs[-1]}

        return {
            "injected": len(self.records),
            "detected": len(detected),
            "recovered": len(recovered),
            "unresolved": [
                (r.event.kind.value, r.event.target, r.note)
                for r in self.records if not r.resolved],
            "detection_latency": _stats(detection),
            "recovery_latency": _stats(recovery),
            "by_kind": dict(self.stats.injections),
            "frames_corrupted": self.stats.frames_corrupted,
            "frames_dropped": self.stats.frames_dropped,
            "frames_delayed": self.stats.frames_delayed,
        }
