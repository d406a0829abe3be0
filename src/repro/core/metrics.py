"""Latency measurement helpers used by every experiment.

The measurement harness has to stay cheap relative to the modeled path:
microsecond-scale RPC claims can't be reproduced if the recorder itself
dominates the profile.  :class:`LatencyRecorder` therefore keeps every
sample and a cached sorted view (one sort per burst of queries, instead
of one sort *per percentile*), so every percentile it reports is the
exact order statistic of what was recorded.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional

from ..sim.randomness import percentile


class LatencyRecorder:
    """Collects latency samples; answers exact percentile/mean queries.

    Every sample is retained and all queries are served from a cached
    sorted view — the sort happens once per burst of queries, not once
    per percentile, so ``summary()`` costs a single sort.
    """

    def __init__(self, name: str = "latency"):
        self.name = name
        self.samples: List[float] = []
        self._sorted: Optional[List[float]] = None
        self._sum = 0.0
        self._max = 0.0

    def record(self, value: float) -> None:
        if value < 0:
            raise ValueError("negative latency")
        self._sum += value
        if value > self._max:
            self._max = value
        self.samples.append(value)
        self._sorted = None

    def extend(self, values: Iterable[float]) -> None:
        for value in values:
            self.record(value)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    @property
    def count(self) -> int:
        return len(self.samples)

    @property
    def total(self) -> float:
        """Sum of every recorded sample."""
        return self._sum

    @property
    def mean(self) -> float:
        if not self.samples:
            raise ValueError("no samples")
        return self._sum / len(self.samples)

    def _view(self) -> List[float]:
        """The cached sorted view, rebuilt only after new samples."""
        if self._sorted is None or len(self._sorted) != len(self.samples):
            self._sorted = sorted(self.samples)
        return self._sorted

    def percentile(self, q: float) -> float:
        if not self.samples:
            raise ValueError("no samples")
        return percentile(self._view(), q)

    @property
    def p50(self) -> float:
        return self.percentile(50)

    @property
    def p95(self) -> float:
        return self.percentile(95)

    @property
    def p99(self) -> float:
        return self.percentile(99)

    @property
    def p999(self) -> float:
        return self.percentile(99.9)

    @property
    def max(self) -> float:
        if not self.samples:
            raise ValueError("no samples")
        return self._max

    def summary(self) -> Dict[str, float]:
        return {
            "count": float(self.count),
            "mean": self.mean,
            "p50": self.p50,
            "p95": self.p95,
            "p99": self.p99,
            "p999": self.p999,
            "max": self.max,
        }
