"""Latency/throughput measurement helpers used by every experiment.

The measurement harness has to stay cheap relative to the modeled path:
microsecond-scale RPC claims can't be reproduced if the recorder itself
dominates the profile.  :class:`LatencyRecorder` therefore keeps a cached
sorted view (one sort per burst of queries, instead of one sort *per
percentile*), and :class:`StreamingQuantile` offers a constant-memory P²
estimator for soaks too long to retain every sample.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from ..sim.randomness import percentile


class StreamingQuantile:
    """Constant-memory quantile estimate via the P² algorithm.

    Jain & Chlamtac's P² (piecewise-parabolic) estimator tracks five
    markers whose heights converge on the ``q``-quantile without storing
    samples.  Accuracy is excellent for central quantiles and good for
    tails once a few hundred samples have arrived; long chaos soaks use it
    to keep memory flat where an exact recorder would retain millions of
    floats.
    """

    __slots__ = ("q", "_n", "_heights", "_positions", "_desired", "_rate",
                 "_frozen")

    def __init__(self, q: float):
        if not 0 < q < 100:
            raise ValueError("q must be in (0, 100)")
        self.q = q
        p = q / 100.0
        self._n = 0
        self._heights: List[float] = []
        self._positions = [1.0, 2.0, 3.0, 4.0, 5.0]
        self._desired = [1.0, 1.0 + 2.0 * p, 1.0 + 4.0 * p, 3.0 + 2.0 * p, 5.0]
        self._rate = [0.0, p / 2.0, p, (1.0 + p) / 2.0, 1.0]
        #: Constituent digests folded in via :meth:`merge`, each a
        #: ``(count, heights, positions)`` snapshot.  Kept verbatim
        #: rather than collapsed into the live markers: repeatedly
        #: re-summarizing to five markers compounds tail error at every
        #: fold (~ratcheting p99 upward by tens of percent over a few
        #: dozen shard merges), whereas querying the flat combination
        #: stays within a few percent.  Memory is 3 machine words + 10
        #: floats per merged digest — negligible at any realistic shard
        #: or hop count.
        self._frozen: List[Tuple[int, Tuple[float, ...],
                                 Tuple[float, ...]]] = []

    @property
    def count(self) -> int:
        return self._n + sum(f[0] for f in self._frozen)

    def record(self, x: float) -> None:
        self._n += 1
        heights = self._heights
        if len(heights) < 5:
            # Initialization phase: collect the first five samples sorted.
            heights.append(x)
            heights.sort()
            return
        # Find the cell containing x, clamping the extremes.
        if x < heights[0]:
            heights[0] = x
            k = 0
        elif x >= heights[4]:
            heights[4] = x
            k = 3
        else:
            k = 0
            while k < 3 and x >= heights[k + 1]:
                k += 1
        positions = self._positions
        for i in range(k + 1, 5):
            positions[i] += 1.0
        desired = self._desired
        for i in range(5):
            desired[i] += self._rate[i]
        # Adjust interior markers toward their desired positions.
        for i in (1, 2, 3):
            d = desired[i] - positions[i]
            if (d >= 1.0 and positions[i + 1] - positions[i] > 1.0) or \
                    (d <= -1.0 and positions[i - 1] - positions[i] < -1.0):
                step = 1.0 if d >= 1.0 else -1.0
                candidate = self._parabolic(i, step)
                if heights[i - 1] < candidate < heights[i + 1]:
                    heights[i] = candidate
                else:
                    heights[i] = self._linear(i, step)
                positions[i] += step

    def _parabolic(self, i: int, step: float) -> float:
        h, pos = self._heights, self._positions
        return h[i] + step / (pos[i + 1] - pos[i - 1]) * (
            (pos[i] - pos[i - 1] + step) * (h[i + 1] - h[i])
            / (pos[i + 1] - pos[i])
            + (pos[i + 1] - pos[i] - step) * (h[i] - h[i - 1])
            / (pos[i] - pos[i - 1]))

    def _linear(self, i: int, step: float) -> float:
        h, pos = self._heights, self._positions
        j = i + int(step)
        return h[i] + step * (h[j] - h[i]) / (pos[j] - pos[i])

    @staticmethod
    def _marker_points(heights: Sequence[float],
                       positions: Sequence[float],
                       n: int) -> List[Tuple[float, float]]:
        """An activated digest as five weighted points.

        Marker ``j`` represents the samples between its neighbors: half
        of each adjacent position gap, plus half a sample of its own at
        the extremes.  The weights sum to exactly ``n`` (gap total is
        ``positions[4] - positions[0] = n - 1``).
        """
        w = [0.0] * 5
        for j in range(4):
            gap = positions[j + 1] - positions[j]
            w[j] += gap / 2.0
            w[j + 1] += gap / 2.0
        w[0] += 0.5
        w[4] += 0.5
        return list(zip(heights, w))

    def _points(self) -> List[Tuple[float, float]]:
        """Live + frozen digests as one weighted point set."""
        if len(self._heights) < 5:
            pts = [(x, 1.0) for x in self._heights]
        else:
            pts = self._marker_points(self._heights, self._positions,
                                      self._n)
        for n, heights, positions in self._frozen:
            pts.extend(self._marker_points(heights, positions, n))
        return pts

    @property
    def value(self) -> float:
        """Current quantile estimate."""
        if self._n == 0 and not self._frozen:
            raise ValueError("no samples")
        if not self._frozen:
            if len(self._heights) < 5:
                # Too few samples for P²: exact percentile fallback.
                return percentile(sorted(self._heights), self.q)
            return self._heights[2]
        # Merged digest: weighted order statistic over the flat
        # combination of all constituents.
        pts = sorted(self._points())
        target = (self.q / 100.0) * sum(w for _, w in pts)
        acc = 0.0
        for x, w in pts:
            acc += w
            if acc >= target:
                return x
        return pts[-1][0]

    @property
    def minimum(self) -> float:
        """Smallest sample represented (exact across merges)."""
        if self._n == 0 and not self._frozen:
            raise ValueError("no samples")
        lows = [f[1][0] for f in self._frozen]
        if self._heights:
            lows.append(min(self._heights) if len(self._heights) < 5
                        else self._heights[0])
        return min(lows)

    @property
    def maximum(self) -> float:
        """Largest sample represented (exact across merges)."""
        if self._n == 0 and not self._frozen:
            raise ValueError("no samples")
        highs = [f[1][4] for f in self._frozen]
        if self._heights:
            highs.append(max(self._heights) if len(self._heights) < 5
                         else self._heights[4])
        return max(highs)

    def merge(self, other: "StreamingQuantile") -> "StreamingQuantile":
        """Fold ``other``'s digest into this one (same ``q`` required).

        Needed wherever independently collected digests must combine:
        per-hop trace digests from overlay shards, or per-process metric
        merging from the shard driver (ROADMAP item 1).  P² has no exact
        merge — the marker heights are an estimate, not a sketch with a
        closure property — so merged-in digests are *retained as frozen
        constituents* and queries answer from the flat weighted
        combination (see ``_frozen``).  The previous approach collapsed
        the pair into five markers per merge by count-weighted height
        averaging; besides compounding error at every fold, it was
        outright wrong for barely activated digests, whose markers sit
        at positions ``1..5`` (raw sorted samples, not canonical
        quantile estimates) — folding many small shard digests dragged
        p99 toward the median by ~2x.  A digest still in its
        initialization phase (< 5 samples) holds raw samples, which are
        simply replayed — exact, no constituent needed.  ``other`` is
        snapshotted: mutating it afterwards does not affect ``self``.
        Accuracy is validated against exact percentiles in
        ``tests/core/test_streaming_merge.py`` and
        ``tests/property/test_streaming_merge_properties.py``.
        """
        if other.q != self.q:
            raise ValueError(
                f"cannot merge digests for different quantiles "
                f"({self.q} vs {other.q})")
        if other._n == 0 and not other._frozen:
            return self
        if len(other._heights) < 5:
            # other's live digest is still initializing: its heights ARE
            # its samples.  (A digest with frozen constituents always
            # has an activated live part, so this is the whole of it.)
            for x in other._heights:
                self.record(x)
            return self
        if len(self._heights) < 5 and not self._frozen:
            # self is still initializing: adopt other's digest wholesale,
            # then replay our raw samples into it.
            mine = list(self._heights)
            self._n = other._n
            self._heights = list(other._heights)
            self._positions = list(other._positions)
            self._desired = list(other._desired)
            self._frozen = list(other._frozen)
            for x in mine:
                self.record(x)
            return self
        self._frozen.append(
            (other._n, tuple(other._heights), tuple(other._positions)))
        self._frozen.extend(other._frozen)
        return self


#: Quantiles a streaming recorder tracks (matching ``summary()``'s keys).
STREAMING_QUANTILES: Tuple[float, ...] = (50.0, 95.0, 99.0, 99.9)


class LatencyRecorder:
    """Collects latency samples; answers percentile/mean queries.

    Exact mode (default) retains every sample and serves all queries from
    a cached sorted view — the sort happens once per burst of queries, not
    once per percentile, so ``summary()`` costs a single sort.

    Streaming mode (``streaming=True``) keeps O(1) memory: count, mean,
    max and P² estimators for the quantiles in
    :data:`STREAMING_QUANTILES`.  Use it for soaks where retaining every
    sample is too expensive; percentiles other than the tracked set are
    unavailable.
    """

    def __init__(self, name: str = "latency", streaming: bool = False):
        self.name = name
        self.streaming = streaming
        self.samples: List[float] = []
        self._sorted: Optional[List[float]] = None
        self._count = 0
        self._sum = 0.0
        self._max = 0.0
        self._estimators: Dict[float, StreamingQuantile] = {}
        if streaming:
            self._estimators = {
                q: StreamingQuantile(q) for q in STREAMING_QUANTILES}

    def record(self, value: float) -> None:
        if value < 0:
            raise ValueError("negative latency")
        self._count += 1
        self._sum += value
        if value > self._max:
            self._max = value
        if self.streaming:
            for estimator in self._estimators.values():
                estimator.record(value)
        else:
            self.samples.append(value)
            self._sorted = None

    def extend(self, values: Iterable[float]) -> None:
        for value in values:
            self.record(value)

    def merge(self, other: "LatencyRecorder") -> "LatencyRecorder":
        """Fold another recorder's samples/digests into this one.

        Exact recorders concatenate samples (still exact).  Streaming
        recorders merge their P² digests via
        :meth:`StreamingQuantile.merge` (approximate).  Modes must
        match — merging an exact recorder into a streaming one would
        silently change the accuracy contract mid-object.
        """
        if self.streaming != other.streaming:
            raise ValueError("cannot merge exact and streaming recorders")
        if other._count == 0:
            return self
        self._count += other._count
        self._sum += other._sum
        if other._max > self._max:
            self._max = other._max
        if self.streaming:
            for q, estimator in self._estimators.items():
                estimator.merge(other._estimators[q])
        else:
            self.samples.extend(other.samples)
            self._sorted = None
        return self

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    @property
    def count(self) -> int:
        return self._count

    @property
    def mean(self) -> float:
        if self._count == 0:
            raise ValueError("no samples")
        return self._sum / self._count

    def _view(self) -> List[float]:
        """The cached sorted view, rebuilt only after new samples."""
        if self._sorted is None or len(self._sorted) != len(self.samples):
            self._sorted = sorted(self.samples)
        return self._sorted

    def percentile(self, q: float) -> float:
        if self._count == 0:
            raise ValueError("no samples")
        if self.streaming:
            estimator = self._estimators.get(float(q))
            if estimator is None:
                raise ValueError(
                    f"streaming recorder tracks only {STREAMING_QUANTILES}; "
                    f"q={q} unavailable")
            return estimator.value
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
        if self._count == 0:
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


@dataclass
class ThroughputMeter:
    """Counts completions over a window to compute achieved throughput.

    The window opens at ``started_at``.  Construct with an explicit start
    time (``ThroughputMeter(started_at=env.now)``) or let the first
    recorded completion open the window; the old default of ``0.0``
    silently inflated the elapsed window for meters created mid-simulation
    and under-reported throughput.
    """

    started_at: Optional[float] = None
    completions: int = 0
    last_completion_at: float = 0.0

    def record(self, now: float) -> None:
        if self.started_at is None:
            self.started_at = now
        self.completions += 1
        self.last_completion_at = now

    def reset(self, now: float) -> None:
        """Restart the measurement window at ``now``."""
        self.started_at = now
        self.completions = 0
        self.last_completion_at = now

    def rate(self, now: Optional[float] = None) -> float:
        if self.started_at is None:
            return 0.0
        end = now if now is not None else self.last_completion_at
        elapsed = end - self.started_at
        if elapsed <= 0:
            return 0.0
        return self.completions / elapsed


@dataclass
class SloTracker:
    """Goodput and deadline-miss accounting for overload experiments.

    Raw open-loop throughput does not collapse under overload — a
    saturated server still completes ~capacity requests per second,
    they are just all late.  What collapses is **goodput**:
    completions that made their deadline.  This tracker therefore
    classifies every offered request into exactly one terminal bucket:

    * ``shed`` — rejected by admission control (fast error),
    * ``expired`` — dropped mid-path because its deadline passed,
    * ``deadline_misses`` — completed, but after its deadline,
    * ``good`` — completed within its deadline (via ``complete()``).

    ``snapshot()`` returns the running counters so a benchmark can diff
    phases (pre-surge vs surge) without multiple tracker objects.
    """

    offered: int = 0
    admitted: int = 0
    degraded: int = 0
    shed: int = 0
    expired: int = 0
    completed: int = 0
    deadline_misses: int = 0
    started_at: Optional[float] = None
    last_event_at: float = 0.0

    def offer(self, now: float) -> None:
        if self.started_at is None:
            self.started_at = now
        self.offered += 1
        self.last_event_at = now

    def admit(self, degraded: bool = False) -> None:
        self.admitted += 1
        if degraded:
            self.degraded += 1

    def shed_one(self) -> None:
        self.shed += 1

    def expire(self) -> None:
        self.expired += 1

    def complete(self, now: float, missed_deadline: bool = False) -> None:
        self.completed += 1
        if missed_deadline:
            self.deadline_misses += 1
        self.last_event_at = now

    @property
    def good(self) -> int:
        """Completions that made their deadline."""
        return self.completed - self.deadline_misses

    def goodput(self, now: Optional[float] = None) -> float:
        """Good completions per second over the tracked window."""
        if self.started_at is None:
            return 0.0
        end = now if now is not None else self.last_event_at
        elapsed = end - self.started_at
        if elapsed <= 0:
            return 0.0
        return self.good / elapsed

    def snapshot(self) -> Dict[str, int]:
        """Running counters, for phase diffing in benchmarks."""
        return {
            "offered": self.offered,
            "admitted": self.admitted,
            "degraded": self.degraded,
            "shed": self.shed,
            "expired": self.expired,
            "completed": self.completed,
            "deadline_misses": self.deadline_misses,
            "good": self.good,
        }


def normalize(values: Iterable[float], reference: float) -> List[float]:
    """Divide each value by ``reference`` (the paper's normalization)."""
    if reference == 0:
        raise ValueError("reference must be non-zero")
    return [v / reference for v in values]
