"""E8 — Fig. 12: remote DNN pool latency vs oversubscription.

Average / 95th / 99th percentile request latencies as the ratio of
software clients to pooled FPGAs grows from 0.5 to 3.0 (the paper's
x-axis), normalized to locally-attached performance in each latency
category.  Headline numbers at 1:1 remote vs local: +1% avg, +4.7% 95th,
+32% 99th; latency spikes as the pool saturates near 3 stress clients
per FPGA.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from ..dnn.pool import (
    OversubscriptionResult,
    RemoteNetworkModel,
    run_oversubscription_point,
)
from .harness import Table, approx, claim, fmt

TITLE = "Fig. 12 — DNN pool oversubscription"

#: (clients, fpgas) pairs for the Fig. 12 x-axis (0.5 .. 3.0).
DEFAULT_SWEEP: List[Tuple[int, int]] = [
    (6, 12), (12, 12), (12, 8), (12, 6), (12, 5), (12, 4)]


@dataclass
class Fig12Result:
    """Local baseline plus the remote oversubscription sweep."""

    local: OversubscriptionResult
    points: List[OversubscriptionResult]

    def at_ratio(self, ratio: float) -> OversubscriptionResult:
        for point in self.points:
            if abs(point.oversubscription - ratio) < 1e-6:
                return point
        raise KeyError(f"no sweep point at ratio {ratio}")

    def one_to_one_overheads(self) -> Tuple[float, float, float]:
        """Remote-vs-local (avg, p95, p99) overhead fractions at 1:1."""
        remote = self.at_ratio(1.0).latency
        local = self.local.latency
        return (remote.mean / local.mean - 1,
                remote.p95 / local.p95 - 1,
                remote.p99 / local.p99 - 1)


def run(sweep: Optional[List[Tuple[int, int]]] = None,
        requests_per_client: int = 350) -> Fig12Result:
    """The oversubscription study: shrink the pool under fixed clients."""
    sweep = sweep or DEFAULT_SWEEP
    remote = RemoteNetworkModel()
    local = run_oversubscription_point(
        12, 12, remote=None, requests_per_client=requests_per_client,
        seed=1)
    points = [
        run_oversubscription_point(
            clients, fpgas, remote=remote,
            requests_per_client=requests_per_client, seed=2 + i)
        for i, (clients, fpgas) in enumerate(sweep)]
    return Fig12Result(local=local, points=points)


def rows(result: Fig12Result):
    local = result.local.latency
    avg_overhead, _p95_overhead, p99_overhead = \
        result.one_to_one_overheads()
    return [Table("Fig. 12 — remote DNN latency vs oversubscription "
                  "(normalized to locally-attached)",
                  ("clients/FPGA", "avg", "p95", "p99"),
                  [(fmt(point.oversubscription),
                    fmt(point.latency.mean / local.mean),
                    fmt(point.latency.p95 / local.p95),
                    fmt(point.latency.p99 / local.p99))
                   for point in result.points]),
            f"1:1 remote overheads: avg {100 * avg_overhead:+.1f}% "
            f"(paper +1%), p99 {100 * p99_overhead:+.1f}% (paper +32%)"]


def check(result: Fig12Result) -> None:
    avg_overhead, _p95_overhead, p99_overhead = \
        result.one_to_one_overheads()
    # 1. 1:1 remote adds a small average overhead but a large p99 one.
    claim("0.0 < avg_overhead < 0.08",
          "0.10 < p99_overhead < 0.60",
          "p99_overhead > 4 * avg_overhead")
    # 2. Latency is flat-ish through moderate oversubscription...
    one_to_one = result.at_ratio(1.0)
    mid = result.at_ratio(2.0)
    claim("mid.latency.mean < 1.6 * one_to_one.latency.mean")
    # 3. ...then spikes as the pool saturates near 3 clients/FPGA.
    saturated = result.points[-1]
    claim("saturated.oversubscription == approx(3.0)",
          "saturated.latency.p99 > 2.0 * mid.latency.p99",
          "saturated.latency.mean > 1.8 * mid.latency.mean")
