"""Fault campaigns: scripted or randomized failure schedules.

A campaign is a time-ordered list of :class:`FaultEvent` drawn from the
paper's §II-B failure taxonomy, scaled from the observed per-machine-day
rates up to whatever intensity a short simulation needs.  Campaigns are
deterministic given (hosts, horizon, config, seed) so chaos experiments
replay exactly.
"""

from __future__ import annotations

import enum
import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from ..deployment.failures import FailureRates

SECONDS_PER_DAY = 24 * 3600.0


class FaultKind(enum.Enum):
    """The failure taxonomy the injector knows how to produce."""

    #: Silent permanent death: the node drops off the fabric for good.
    FPGA_DEATH = "fpga_death"
    #: Transient link loss: detach, then reattach after ``duration``.
    LINK_FLAP = "link_flap"
    #: Frames to the target are corrupted with probability ``magnitude``.
    FRAME_CORRUPT = "frame_corrupt"
    #: Frames to the target are dropped with probability ``magnitude``.
    FRAME_DROP = "frame_drop"
    #: Gray node: deliveries to the target delayed by ``magnitude`` s.
    GRAY_NODE = "gray_node"
    #: SEU wedges the role region until repair.
    ROLE_HANG = "role_hang"
    #: Whole TOR dark for ``duration``: every host on it detaches.
    TOR_OUTAGE = "tor_outage"
    #: Control-plane stall: heartbeats stop, leases may expire.
    CONTROL_STALL = "control_stall"
    #: Flash crowd: offered load multiplied by ``magnitude`` for
    #: ``duration``.  Drawn but elided (no harness drives an offered
    #: load); kept so every later kind's seeded draws stay put.
    LOAD_SPIKE = "load_spike"
    #: Limplock: the target serves/forwards ``magnitude`` x slower for
    #: ``duration`` without failing health checks.
    SLOW_PEER = "slow_peer"
    #: The Resource Manager process dies; restarted (journal replay +
    #: epoch bump) after ``duration``.  (New members append at the end:
    #: campaign draws are per-kind in enum order, so earlier kinds'
    #: schedules are byte-stable across taxonomy growth.)
    RM_CRASH = "rm_crash"
    #: One Service Manager loses all control-plane connectivity for
    #: ``duration`` — renews, acquires and revocation pushes are all
    #: dropped (the split-brain scenario lease fencing defends against).
    NETWORK_PARTITION = "network_partition"


#: Kinds whose effect ends on its own after ``duration``.
TRANSIENT_KINDS = frozenset({
    FaultKind.LINK_FLAP, FaultKind.FRAME_CORRUPT, FaultKind.FRAME_DROP,
    FaultKind.GRAY_NODE, FaultKind.TOR_OUTAGE, FaultKind.CONTROL_STALL,
    FaultKind.LOAD_SPIKE, FaultKind.SLOW_PEER, FaultKind.RM_CRASH,
    FaultKind.NETWORK_PARTITION,
})

#: Kinds aimed at the control plane rather than a host (target -1).
CONTROL_PLANE_KINDS = frozenset({
    FaultKind.CONTROL_STALL, FaultKind.RM_CRASH,
    FaultKind.NETWORK_PARTITION,
})


@dataclass
class FaultEvent:
    """One scheduled fault."""

    at: float
    kind: FaultKind
    #: Host index for host-scoped faults; for TOR_OUTAGE any host on the
    #: victim TOR; -1 for control-plane faults.
    target: int = -1
    #: How long a transient fault lasts (seconds).
    duration: float = 0.0
    #: Kind-specific intensity: corruption/drop probability, or the gray
    #: delivery delay in seconds.
    magnitude: float = 0.0


@dataclass
class CampaignConfig:
    """Per-kind event rates (events per host-second) and shapes.

    Defaults come from :meth:`scaled_from_paper` semantics: call that to
    derive rates from the §II-B table; construct directly for hand-tuned
    mixes.
    """

    rates: Dict[FaultKind, float] = field(default_factory=dict)
    flap_duration: float = 2.0
    corrupt_duration: float = 1.0
    corrupt_probability: float = 0.3
    drop_duration: float = 1.0
    drop_probability: float = 0.3
    gray_duration: float = 2.0
    gray_delay: float = 1e-3
    tor_outage_duration: float = 3.0
    control_stall_duration: float = 10.0
    load_spike_duration: float = 2.0
    load_spike_multiplier: float = 5.0
    slow_peer_duration: float = 2.0
    slow_peer_factor: float = 8.0
    rm_crash_duration: float = 3.0
    partition_duration: float = 8.0

    @classmethod
    def scaled_from_paper(cls, scale: float,
                          rates: Optional[FailureRates] = None,
                          **shape_overrides) -> "CampaignConfig":
        """Derive per-host-second rates from §II-B, multiplied by
        ``scale`` so a seconds-long simulation sees a month's mix.

        The observed counts cover hard deaths, flaky links and SEUs; the
        purely synthetic attack shapes (corruption, drop, gray, TOR
        outage, control stall) are pinned to the cable/SEU scales so the
        mix stays §II-B-proportioned.
        """
        r = rates or FailureRates()
        hard = r.fpga_hard_per_machine_day / SECONDS_PER_DAY * scale
        cable = r.cable_per_machine_day / SECONDS_PER_DAY * scale
        seu = (r.seu_per_machine_day * r.seu_role_hang_fraction
               / SECONDS_PER_DAY * scale)
        config = cls(rates={
            FaultKind.FPGA_DEATH: hard,
            FaultKind.LINK_FLAP: cable,
            FaultKind.FRAME_CORRUPT: cable,
            FaultKind.FRAME_DROP: cable,
            FaultKind.GRAY_NODE: cable,
            FaultKind.ROLE_HANG: seu,
            # Rack- and control-plane-scoped events are far rarer than
            # per-host ones in practice.
            FaultKind.TOR_OUTAGE: cable / 10.0,
            FaultKind.CONTROL_STALL: cable / 10.0,
            # Flash crowds hit the datacenter, not a host, so they
            # arrive at TOR-outage-like rarity; limplocked peers show up
            # about as often as other gray cable faults.
            FaultKind.LOAD_SPIKE: cable / 10.0,
            FaultKind.SLOW_PEER: cable,
            # Control-plane process death is the rarest event in the
            # taxonomy; partitions stranding a single SM arrive at the
            # rack-event scale.
            FaultKind.RM_CRASH: cable / 20.0,
            FaultKind.NETWORK_PARTITION: cable / 10.0,
        })
        for name, value in shape_overrides.items():
            setattr(config, name, value)
        return config

    def event_shape(self, kind: FaultKind) -> Dict[str, float]:
        """(duration, magnitude) defaults for ``kind``."""
        return {
            FaultKind.FPGA_DEATH: dict(duration=0.0, magnitude=0.0),
            FaultKind.LINK_FLAP: dict(
                duration=self.flap_duration, magnitude=0.0),
            FaultKind.FRAME_CORRUPT: dict(
                duration=self.corrupt_duration,
                magnitude=self.corrupt_probability),
            FaultKind.FRAME_DROP: dict(
                duration=self.drop_duration,
                magnitude=self.drop_probability),
            FaultKind.GRAY_NODE: dict(
                duration=self.gray_duration, magnitude=self.gray_delay),
            FaultKind.ROLE_HANG: dict(duration=0.0, magnitude=0.0),
            FaultKind.TOR_OUTAGE: dict(
                duration=self.tor_outage_duration, magnitude=0.0),
            FaultKind.CONTROL_STALL: dict(
                duration=self.control_stall_duration, magnitude=0.0),
            FaultKind.LOAD_SPIKE: dict(
                duration=self.load_spike_duration,
                magnitude=self.load_spike_multiplier),
            FaultKind.SLOW_PEER: dict(
                duration=self.slow_peer_duration,
                magnitude=self.slow_peer_factor),
            FaultKind.RM_CRASH: dict(
                duration=self.rm_crash_duration, magnitude=0.0),
            FaultKind.NETWORK_PARTITION: dict(
                duration=self.partition_duration, magnitude=0.0),
        }[kind]


def generate_campaign(hosts: Sequence[int], horizon: float,
                      config: CampaignConfig,
                      seed: int = 0) -> List[FaultEvent]:
    """Draw a deterministic Poisson campaign over ``hosts``.

    Each kind arrives as an independent Poisson process with rate
    ``config.rates[kind] * len(hosts)``; targets are drawn uniformly from
    ``hosts`` (control stalls target -1).
    """
    if not hosts:
        raise ValueError("campaign needs at least one target host")
    rng = random.Random(seed)
    events: List[FaultEvent] = []
    for kind in FaultKind:
        rate = config.rates.get(kind, 0.0) * len(hosts)
        if rate <= 0.0:
            continue
        t = rng.expovariate(rate)
        while t < horizon:
            shape = config.event_shape(kind)
            target = -1 if kind in CONTROL_PLANE_KINDS \
                else rng.choice(list(hosts))
            events.append(FaultEvent(at=t, kind=kind, target=target,
                                     **shape))
            t += rng.expovariate(rate)
    events.sort(key=lambda e: (e.at, e.kind.value, e.target))
    return events
