"""E2 — Fig. 6: 99th-percentile latency vs throughput, single server.

Software vs local FPGA, axes normalized exactly as the paper does:
software typical throughput = 1.0, the production latency target = 1.0
(software meets the target at throughput 1.0).  The headline: "with the
single local FPGA, at the target 99th percentile latency, the throughput
can be safely increased by 2.25x."
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from ..ranking.service import (
    AccelerationMode,
    RankingServiceConfig,
    run_open_loop,
    saturation_qps,
)
from .harness import Table, claim, fmt

TITLE = "Fig. 6 — ranking latency vs throughput"

DEFAULT_LOAD_POINTS = (0.25, 0.5, 0.75, 1.0, 1.25, 1.5, 1.75, 2.0,
                       2.25, 2.5)


@dataclass
class Fig6Result:
    """Normalized latency-vs-throughput curves per mode."""

    #: mode name -> [(normalized load, normalized p99 latency)].
    curves: Dict[str, List[Tuple[float, float]]]
    #: absolute latency target (seconds) used for normalization.
    latency_target: float
    #: absolute qps corresponding to normalized load 1.0.
    base_qps: float

    def max_load_under_target(self, mode: str) -> float:
        ok = [load for load, p99 in self.curves[mode] if p99 <= 1.0]
        return max(ok) if ok else 0.0

    @property
    def throughput_gain(self) -> float:
        """The Fig. 6 headline: FPGA/software load at the target."""
        return self.max_load_under_target("fpga") / \
            self.max_load_under_target("software")


def sweep(modes, load_points, queries: int, quantile: str,
          software_limit: float, seed_scale: int):
    """Each mode's ``quantile`` latency (``"p99"`` or ``"p999"``) over
    normalized loads, for Figs. 6 and 11: load 1.0 is 0.9x software
    saturation, and latency is in units of software's there.  Software
    stops above ``software_limit`` (deep saturation: nothing more to
    learn); each load's run is seeded ``int(load * seed_scale)``.

    Returns ``(curves, latency_target, base_qps)``.
    """
    configs = {name: RankingServiceConfig(mode=mode)
               for name, mode in modes.items()}
    base_qps = 0.9 * saturation_qps(configs["software"])
    reference = run_open_loop(configs["software"], base_qps,
                              num_queries=2 * queries, seed=0)
    target = getattr(reference.latency, quantile)
    curves: Dict[str, List[Tuple[float, float]]] = {}
    for name, config in configs.items():
        points = []
        for load in load_points:
            if name == "software" and load > software_limit:
                continue
            result = run_open_loop(config, load * base_qps,
                                   num_queries=queries,
                                   seed=int(load * seed_scale))
            points.append((load, getattr(result.latency, quantile) / target))
        curves[name] = points
    return curves, target, base_qps


def run(load_points=DEFAULT_LOAD_POINTS, queries: int = 1500) -> Fig6Result:
    """Sweep software and local-FPGA modes over normalized loads."""
    return Fig6Result(*sweep(
        {"software": AccelerationMode.SOFTWARE,
         "fpga": AccelerationMode.LOCAL_FPGA},
        load_points, queries, "p99", software_limit=1.6, seed_scale=100))


def rows(result: Fig6Result):
    points = [(name, fmt(load), fmt(p99))
              for name, curve in result.curves.items()
              for load, p99 in curve]
    return [Table("Fig. 6 — 99% latency vs throughput (normalized)",
                  ("mode", "throughput", "p99 latency"), points),
            f"throughput at latency target: software "
            f"{result.max_load_under_target('software'):.2f}x, FPGA "
            f"{result.max_load_under_target('fpga'):.2f}x -> gain "
            f"{result.throughput_gain:.2f}x (paper: 2.25x)"]


def check(result: Fig6Result) -> None:
    software_max = result.max_load_under_target("software")
    fpga_max = result.max_load_under_target("fpga")
    gain = result.throughput_gain
    # Software meets the target at 1.0 but not much beyond; the FPGA
    # sustains >= 2x at the same target.
    claim("software_max >= 1.0",
          "software_max < 1.6",
          "fpga_max >= 2.0",
          "1.8 <= gain <= 2.8")
