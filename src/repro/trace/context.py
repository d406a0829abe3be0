"""TraceContext — the object that rides a request end to end.

Attribution model
-----------------

A context is opened at the moment the request enters the instrumented
datapath (``t0``).  Every tap point calls ``tap(stage, now)`` which
appends ``(stage, now)`` and *attributes the whole interval since the
previous mark to that stage*.  Because each mark closes the interval
behind it, the per-stage durations always sum to ``last_mark - t0``
exactly — honest accounting falls out of the data structure rather than
being asserted after the fact.  Whatever tail is left between the final
mark and the externally measured completion time is the *residual*:
the uninstrumented remainder, which :class:`repro.trace.recorder.
TraceRecorder` reports explicitly and CI gates below 1%.

Go-back-N retransmits
---------------------

The LTL engine snapshots ``checkpoint()`` when a frame is first
transmitted.  If the frame has to be retransmitted, the marks taken by
the doomed traversal (wire, switch queues...) are rolled back with
``rewind()`` and the whole span from the original transmit to the
retransmission is tapped as :attr:`Stage.LTL_RETX` — so wire/switch
hops are never double-counted and retransmit wait lands in its own
bucket (see ``tests/trace/test_retransmit.py``).

Hot-path discipline
-------------------

``tap`` appends to a plain list: no dict lookups, no RNG, no simulator
events.  An untraced request costs each tap site a single
``x.trace is not None`` check.  Taps must never consume randomness or
schedule events, so enabling tracing cannot perturb seeded runs.
"""

from __future__ import annotations

from typing import Any, List, Tuple

__all__ = ["TraceContext"]


class TraceContext:
    """Per-request timestamp trail with interval attribution.

    Parameters
    ----------
    t0:
        Simulation time at which the request entered the datapath.
    request_id:
        Opaque identifier used when the span is captured for forensics.
    sampled:
        When True, the recorder keeps the full per-hop span (not just
        the per-hop quantiles) on completion.
    """

    __slots__ = ("t0", "request_id", "sampled", "marks", "meta",
                 "owner", "closed", "protected")

    def __init__(self, t0: float, request_id: Any = None, sampled: bool = False):
        self.t0 = t0
        self.request_id = request_id
        self.sampled = sampled
        self.marks: List[Tuple[Any, float]] = []
        self.meta: Any = None
        #: The recorder that opened this span (None for bare contexts).
        self.owner: Any = None
        #: True once the span has been completed or abandoned.
        self.closed = False
        #: True while the request is in the custody of a reliable
        #: transport (LTL): a packet drop is then recoverable — the frame
        #: will be retransmitted — so drop sites must NOT abandon the
        #: span.  Set by the LTL engine at first transmit.
        self.protected = False

    # -- hot path ---------------------------------------------------------

    def tap(self, stage, now: float) -> None:
        """Attribute the interval since the previous mark to ``stage``."""
        self.marks.append((stage, now))

    def insert(self, stage, at: float) -> None:
        """Record a mark for instant ``at`` that is written late: it goes
        after every mark taken at or before ``at``, so a tap made in the
        meantime (e.g. by a duplicate go-back-N frame) stays in time
        order."""
        marks = self.marks
        index = len(marks)
        while index and marks[index - 1][1] > at:
            index -= 1
        marks.insert(index, (stage, at))

    # -- drop handling -----------------------------------------------------

    def abandon(self, now: float) -> None:
        """Close the span at a drop point (a packet tail-dropped at a port).

        Routes to the owning recorder's :meth:`~repro.trace.recorder.
        TraceRecorder.abandon` so dropped requests are counted instead of
        leaking; a bare context (no owner) just marks itself closed.
        Idempotent, and a no-op after normal completion.
        """
        if self.closed:
            return
        owner = self.owner
        if owner is not None:
            owner.abandon(self, now)
        else:
            self.closed = True

    # -- retransmit rollback ---------------------------------------------

    def checkpoint(self) -> int:
        """Snapshot the trail; pass to :meth:`rewind` to discard later marks."""
        return len(self.marks)

    def rewind(self, checkpoint: int) -> None:
        """Drop every mark recorded after ``checkpoint``.

        Used by the LTL engine to erase the doomed traversal of a frame
        that is about to be retransmitted.
        """
        del self.marks[checkpoint:]

    # -- reduction --------------------------------------------------------

    @property
    def last_time(self) -> float:
        """Time of the newest mark (``t0`` when no marks were taken)."""
        return self.marks[-1][1] if self.marks else self.t0

    def durations(self) -> List[Tuple[Any, float]]:
        """Per-mark ``(stage, duration)`` pairs, in tap order.

        The same stage may appear multiple times (e.g. ``link.wire``
        once per physical hop); callers that want per-stage totals
        should aggregate.  By construction
        ``sum(d for _, d in durations()) == last_time - t0``.
        """
        out: List[Tuple[Any, float]] = []
        prev = self.t0
        for stage, at in self.marks:
            out.append((stage, at - prev))
            prev = at
        return out

    def totals(self) -> dict:
        """Aggregate :meth:`durations` into per-stage sums."""
        acc: dict = {}
        prev = self.t0
        for stage, at in self.marks:
            acc[stage] = acc.get(stage, 0.0) + (at - prev)
            prev = at
        return acc

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        hops = ", ".join(
            f"{getattr(s, 'value', s)}@{t:.9f}" for s, t in self.marks[:6]
        )
        more = "..." if len(self.marks) > 6 else ""
        return f"TraceContext(t0={self.t0:.9f}, [{hops}{more}])"
