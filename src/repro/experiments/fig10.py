"""E6 — Fig. 10: LTL round-trip latency vs reachable hosts.

Idle LTL RTT across many sender-receiver pairs at each network tier,
"from the moment the header of a packet is generated in LTL until the
corresponding ACK for that packet is received in LTL", plus the
Catapult v1 6x8 torus baseline.

Paper numbers:
  L0 (24 hosts)      avg 2.88 us, 99.9th 2.9 us
  L1 (960 hosts)     avg 7.72 us, 99.9th 8.24 us
  L2 (250k+ hosts)   avg 18.71 us, 99.9th 22.38 us, max < 23.5 us
  torus (48 FPGAs)   ~1 us nearest-neighbor RTT, 7 us worst case
"""

from __future__ import annotations

import random
import statistics
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from ..core.cloud import ConfigurableCloud
from ..sim.randomness import percentile
from .harness import Table, approx, claim, fmt

TITLE = "Fig. 10 — LTL round-trip latency per tier"
SEED = 10

#: (tier -> (reachable hosts, sender/receiver pairs measured)).
DEFAULT_TIER_PAIRS: Dict[str, Tuple[int, List[Tuple[int, int]]]] = {
    "L0": (24, [(0, 1), (2, 3), (4, 5), (6, 7)]),
    "L1": (960, [(8, 30), (9, 200), (10, 500), (11, 900)]),
    "L2": (250_000, [(12, 5_000), (13, 50_000), (14, 120_000),
                     (15, 200_000), (16, 250_000), (17, 99_000)]),
}


@dataclass
class TierStats:
    """Latency summary for one tier (seconds)."""

    reachable: int
    avg: float
    p999: float
    max: float
    samples: List[float] = field(repr=False, default_factory=list)


@dataclass
class Fig10Result:
    """All tiers plus the torus baseline."""

    tiers: Dict[str, TierStats]
    torus: TierStats


def run(tier_pairs: Dict[str, Tuple[int, List[Tuple[int, int]]]]
        = None, messages_per_pair: int = 60) -> Fig10Result:
    """Measure idle LTL RTT per tier plus the torus baseline."""
    from ..torus import TorusLatencyModel, TorusTopology
    tier_pairs = tier_pairs or DEFAULT_TIER_PAIRS
    cloud = ConfigurableCloud(seed=SEED)
    tiers: Dict[str, TierStats] = {}
    for tier, (reachable, pairs) in tier_pairs.items():
        samples: List[float] = []
        for src, dst in pairs:
            for host in (src, dst):
                if host not in cloud.servers:
                    cloud.add_server(host, enroll=False)
            samples.extend(cloud.measure_ltl_rtt(
                src, dst, messages=messages_per_pair))
        samples.sort()
        tiers[tier] = TierStats(
            reachable=reachable, avg=statistics.mean(samples),
            p999=percentile(samples, 99.9), max=max(samples),
            samples=samples)

    torus_model = TorusLatencyModel(TorusTopology())
    torus_samples = sorted(
        torus_model.all_pair_round_trips(random.Random(SEED)))
    torus = TierStats(
        reachable=48, avg=statistics.mean(torus_samples),
        p999=percentile(torus_samples, 99.9), max=max(torus_samples),
        samples=torus_samples)
    return Fig10Result(tiers=tiers, torus=torus)


def rows(result: Fig10Result):
    tiers = {**result.tiers, "torus": result.torus}
    return [Table("Fig. 10 — LTL round-trip latency (us)",
                  ("tier", "reachable", "avg", "p99.9", "max"),
                  [(tier, f"{s.reachable:,}", fmt(s.avg * 1e6),
                    fmt(s.p999 * 1e6), fmt(s.max * 1e6))
                   for tier, s in tiers.items()]),
            "paper: L0 2.88/2.90, L1 7.72/8.24, L2 18.71/22.38 "
            "(avg/p99.9 us); torus 1 us 1-hop, 7 us worst-case"]


def check(result: Fig10Result) -> None:
    tiers = result.tiers
    # Absolute calibration (idle latencies are the paper's headline).
    claim('tiers["L0"].avg == approx(2.88e-6, rel=0.03)',
          'tiers["L0"].p999 == approx(2.9e-6, rel=0.05)',
          'tiers["L1"].avg == approx(7.72e-6, rel=0.05)',
          'tiers["L1"].p999 == approx(8.24e-6, rel=0.12)',
          'tiers["L2"].avg == approx(18.71e-6, rel=0.12)')
    # "L2 latency never exceeded 23.5 us in any of our experiments."
    claim('tiers["L2"].max < 23.5e-6')
    # Tier ordering and torus comparison: comparable at rack scale,
    # but the torus reaches only 48 FPGAs.
    claim('tiers["L0"].avg < tiers["L1"].avg < tiers["L2"].avg',
          "min(result.torus.samples) == approx(1e-6, rel=0.15)",
          "result.torus.max == approx(7e-6, rel=0.15)")
