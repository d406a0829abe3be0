"""E7 — Fig. 11: software vs local FPGA vs remote FPGA ranking.

"The data show that over a range of throughput targets, the latency
overhead of remote accesses is minimal": all three modes on the
latency-vs-throughput axes, normalized to the software 99.9th-percentile
latency target.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from ..ranking.service import AccelerationMode
from .fig06 import sweep
from .harness import Table, claim, fmt

TITLE = "Fig. 11 — software/local/remote ranking"

DEFAULT_LOAD_POINTS = (0.25, 0.5, 0.75, 1.0, 1.5, 2.0)


@dataclass
class Fig11Result:
    """Normalized p99.9 latency-vs-throughput curves per mode."""

    curves: Dict[str, List[Tuple[float, float]]]
    latency_target: float
    base_qps: float

    def mean_remote_overhead(self) -> float:
        """Mean remote/local latency ratio minus one, across loads."""
        local = dict(self.curves["local"])
        remote = dict(self.curves["remote"])
        shared = [load for load in local if load in remote]
        return sum(remote[load] / local[load] - 1
                   for load in shared) / len(shared)


def run(load_points=DEFAULT_LOAD_POINTS, queries: int = 1200
        ) -> Fig11Result:
    return Fig11Result(*sweep(
        {"software": AccelerationMode.SOFTWARE,
         "local": AccelerationMode.LOCAL_FPGA,
         "remote": AccelerationMode.REMOTE_FPGA},
        load_points, queries, "p999", software_limit=1.1, seed_scale=1000))


def rows(result: Fig11Result):
    points = [(name, fmt(load), fmt(p999))
              for name, curve in result.curves.items()
              for load, p999 in curve]
    return [Table("Fig. 11 — p99.9 latency vs throughput (normalized to "
                  "software target)", ("mode", "throughput", "p99.9"),
                  points),
            f"mean remote-vs-local latency overhead across loads: "
            f"{100 * result.mean_remote_overhead():+.1f}% "
            f"(paper: 'minimal')"]


def check(result: Fig11Result) -> None:
    mean_overhead = result.mean_remote_overhead()
    local = dict(result.curves["local"])
    remote = dict(result.curves["remote"])
    software = dict(result.curves["software"])
    # Remote tracks local closely at every shared load point; both beat
    # software at its achievable loads.
    for load in local:
        claim("remote[load] <= local[load] * 1.35 + 0.05")
    for load in software:
        claim("local[load] < software[load]")
    claim("abs(mean_overhead) < 0.25")
