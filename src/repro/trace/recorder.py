"""TraceRecorder — exact per-hop latency quantiles and honest decomposition.

The recorder owns the aggregation side of tracing: spans are opened with
:meth:`TraceRecorder.start`, ride the datapath as
:class:`~repro.trace.context.TraceContext` objects, and are closed with
:meth:`TraceRecorder.complete`, which records the span's per-stage
durations into one exact :class:`repro.core.metrics.LatencyRecorder` per
hop (and one for end-to-end), so the reported P50/P99/P99.9 are the
exact order statistics of the recorded durations.

Honest accounting: for every completed span,

``sum(per-hop durations) + residual == end - t0``  (exactly)

where the residual is the uninstrumented interval between the last tap
and the externally observed completion.  :meth:`TraceReport.check`
gates the aggregate residual fraction below 1%, so "the hops explain
the end-to-end latency" is an enforced property, not a hope.  Because
stage durations telescope, that sum holds whatever order the taps came
in; a tap out of time order shows up instead as a negative stage
duration, which the recorder counts and :meth:`TraceReport.check`
rejects.

Span forensics: a seeded, deterministic sampler keeps the full mark
trail for a bounded number of spans (tail debugging wants the exact
sequence of taps for a slow request, not just quantiles).  The sampler
draws from its own private RNG stream — never the simulation's — so
enabling capture cannot perturb seeded runs.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any, Dict, List, Tuple

from ..core.metrics import LatencyRecorder
from .context import TraceContext
from .stages import stage_name

__all__ = ["SpanRecord", "TraceRecorder", "TraceReport"]

#: Per-hop quantiles every report carries (Fig. 10-style P50/P99 + P99.9).
TRACE_QUANTILES: Tuple[float, ...] = (50.0, 99.0, 99.9)


def _quantiles(recorder: LatencyRecorder) -> Dict[str, float]:
    """``TRACE_QUANTILES`` of ``recorder`` keyed ``p50``/``p99``/``p99_9``."""
    return {f"p{q:g}".replace(".", "_"): recorder.percentile(q)
            for q in TRACE_QUANTILES}


@dataclass
class SpanRecord:
    """A fully captured span: the exact tap trail of one request."""

    request_id: Any
    t0: float
    end: float
    marks: Tuple[Tuple[str, float], ...]

    @property
    def e2e(self) -> float:
        return self.end - self.t0

    def durations(self) -> List[Tuple[str, float]]:
        out: List[Tuple[str, float]] = []
        prev = self.t0
        for stage, at in self.marks:
            out.append((stage, at - prev))
            prev = at
        return out


class TraceRecorder:
    """Opens, closes and aggregates request spans.

    Parameters
    ----------
    sample_rate:
        Fraction of completed spans whose full mark trail is retained
        for forensics (0 disables capture).
    seed:
        Seed for the private sampling RNG — same seed, same arrival
        order => same captured spans.
    max_spans:
        Upper bound on retained :class:`SpanRecord` objects (oldest
        kept; once full, further samples only update the quantiles).
    """

    def __init__(self, sample_rate: float = 0.0, seed: int = 0,
                 max_spans: int = 64):
        if not 0.0 <= sample_rate <= 1.0:
            raise ValueError("sample_rate must be in [0, 1]")
        self.sample_rate = sample_rate
        self.max_spans = max_spans
        self._rng = random.Random(seed)
        self._hops: Dict[str, LatencyRecorder] = {}
        self._e2e = LatencyRecorder("end-to-end")
        self._residual_total = 0.0
        self._e2e_total = 0.0
        self._spans: List[SpanRecord] = []
        self.started = 0
        self.completed = 0
        #: Spans closed at a drop point (queue overflow) instead of
        #: delivery.  Their attributed hop time is
        #: recorded per hop — the time was really spent — but
        #: they do not contribute to the end-to-end latency quantiles.
        self.abandoned = 0
        #: Closed spans with a negative stage duration: a mark earlier
        #: than the one before it.
        self.non_monotonic = 0

    # -- span lifecycle ---------------------------------------------------

    def start(self, t0: float, request_id: Any = None) -> TraceContext:
        """Open a span at ``t0``; sampling is decided here, deterministically."""
        sampled = (self.sample_rate > 0.0
                   and self._rng.random() < self.sample_rate)
        self.started += 1
        ctx = TraceContext(t0, request_id=request_id, sampled=sampled)
        ctx.owner = self
        return ctx

    def abandon(self, ctx: TraceContext, now: float) -> None:
        """Close a span at a drop point so it is counted, not leaked.

        Keeps the honest-accounting invariant: the abandoned span's hop
        durations and residual are folded into the totals with
        ``e2e = now - t0``, so ``hop_sum_total + residual_total ==
        e2e_total`` still holds exactly.  Idempotent; a no-op once the
        span completed normally.
        """
        if ctx.closed:
            return
        ctx.closed = True
        self.abandoned += 1
        self._e2e_total += now - ctx.t0
        self._record_hops(ctx, now)

    def complete(self, ctx: TraceContext, now: float) -> None:
        """Close a span at ``now`` and record it per hop and end to end.

        The mark trail is reduced *here*, once, after the request is
        done — never on the datapath.  Marks are copied into any
        captured :class:`SpanRecord` so later reuse/rewind of the
        context cannot mutate a stored span.
        """
        if ctx.closed:
            return
        ctx.closed = True
        self.completed += 1
        e2e = now - ctx.t0
        self._e2e_total += e2e
        self._e2e.record(e2e)
        self._record_hops(ctx, now)
        if ctx.sampled and len(self._spans) < self.max_spans:
            self._spans.append(SpanRecord(
                request_id=ctx.request_id,
                t0=ctx.t0,
                end=now,
                marks=tuple((stage_name(s), t) for s, t in ctx.marks),
            ))

    def _record_hops(self, ctx: TraceContext, now: float) -> None:
        """Fold a closing span's per-stage durations and its residual
        into the totals, counting the span if a duration is negative."""
        prev = ctx.t0
        for _stage, at in ctx.marks:
            if at < prev:
                self.non_monotonic += 1
                break
            prev = at
        for stage, duration in ctx.totals().items():
            name = stage_name(stage)
            hop = self._hops.get(name)
            if hop is None:
                hop = self._hops[name] = LatencyRecorder(name)
            hop.record(duration)
        # Residual: the tail between the last tap and the observed end.
        self._residual_total += now - ctx.last_time

    # -- reporting --------------------------------------------------------

    def report(self) -> "TraceReport":
        hops: Dict[str, Dict[str, float]] = {}
        for name, stats in self._hops.items():
            entry: Dict[str, float] = {
                "count": float(stats.count),
                "total": stats.total,
                "mean": stats.mean,
                "share": (stats.total / self._e2e_total
                          if self._e2e_total > 0 else 0.0),
            }
            entry.update(_quantiles(stats))
            hops[name] = entry
        e2e: Dict[str, float] = {}
        if self._e2e.count:
            e2e = {"count": float(self._e2e.count), "mean": self._e2e.mean}
            e2e.update(_quantiles(self._e2e))
        hop_sum = sum(s.total for s in self._hops.values())
        return TraceReport(
            spans=self.completed,
            hops=hops,
            e2e=e2e,
            hop_sum_total=hop_sum,
            e2e_total=self._e2e_total,
            residual_total=self._residual_total,
            sampled_spans=tuple(self._spans),
            abandoned_spans=self.abandoned,
            non_monotonic_spans=self.non_monotonic,
        )


@dataclass
class TraceReport:
    """Aggregated per-hop decomposition with an explicit residual.

    ``hop_sum_total + residual_total == e2e_total`` holds exactly by
    construction; ``residual_fraction`` is the share of end-to-end time
    the instrumentation failed to attribute, gated by :meth:`check`.
    """

    spans: int
    hops: Dict[str, Dict[str, float]]
    e2e: Dict[str, float]
    hop_sum_total: float
    e2e_total: float
    residual_total: float
    sampled_spans: Tuple[SpanRecord, ...] = ()
    #: Spans closed at a drop point (see :meth:`TraceRecorder.abandon`).
    abandoned_spans: int = 0
    #: Spans with a negative stage duration (see
    #: :attr:`TraceRecorder.non_monotonic`).
    non_monotonic_spans: int = 0

    @property
    def residual_fraction(self) -> float:
        if self.e2e_total <= 0:
            return 0.0
        return self.residual_total / self.e2e_total

    def check(self, max_residual: float = 0.01, min_hops: int = 5) -> None:
        """Raise if the decomposition is not honest enough.

        * no span may have a negative stage duration (a tap out of time
          order),
        * hop sums + residual must reconstruct end-to-end time within
          float tolerance (a bookkeeping identity: stage durations
          telescope, so it holds whatever the tap order and a failure
          means the recorder's own accounting broke),
        * the residual must stay below ``max_residual`` of e2e time,
        * at least ``min_hops`` distinct stages must carry attribution.
        """
        if self.non_monotonic_spans:
            raise AssertionError(
                f"{self.non_monotonic_spans} spans have a negative stage "
                f"duration (a tap out of time order)")
        recon = self.hop_sum_total + self.residual_total
        if abs(recon - self.e2e_total) > 1e-9 * max(1.0, self.e2e_total):
            raise AssertionError(
                f"hop sum {self.hop_sum_total:.9g} + residual "
                f"{self.residual_total:.9g} != e2e {self.e2e_total:.9g}")
        if self.residual_fraction > max_residual:
            raise AssertionError(
                f"unattributed residual {self.residual_fraction:.2%} exceeds "
                f"{max_residual:.2%} of end-to-end time")
        if len(self.hops) < min_hops:
            raise AssertionError(
                f"only {len(self.hops)} hops attributed; need >= {min_hops}")

    def format_table(self, unit: float = 1e-6, unit_label: str = "us") -> str:
        """Render the Fig. 10-style per-hop table (times in ``unit``)."""
        lines = [
            f"{'hop':<16} {'count':>8} {'share':>7} "
            f"{'mean':>10} {'p50':>10} {'p99':>10} {'p99.9':>10}  ({unit_label})",
            "-" * 78,
        ]
        order = sorted(self.hops.items(), key=lambda kv: -kv[1]["total"])
        for name, h in order:
            lines.append(
                f"{name:<16} {int(h['count']):>8} {h['share']:>6.1%} "
                f"{h['mean'] / unit:>10.2f} {h['p50'] / unit:>10.2f} "
                f"{h['p99'] / unit:>10.2f} {h['p99_9'] / unit:>10.2f}")
        lines.append("-" * 78)
        if self.e2e:
            lines.append(
                f"{'end-to-end':<16} {int(self.e2e['count']):>8} {'':>7} "
                f"{self.e2e['mean'] / unit:>10.2f} "
                f"{self.e2e['p50'] / unit:>10.2f} "
                f"{self.e2e['p99'] / unit:>10.2f} "
                f"{self.e2e['p99_9'] / unit:>10.2f}")
        lines.append(
            f"residual (unattributed): {self.residual_fraction:.3%} "
            f"of end-to-end time over {self.spans} spans")
        return "\n".join(lines)
