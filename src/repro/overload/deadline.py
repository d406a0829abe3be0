"""Deadline/budget propagation (the unit of end-to-end overload control).

A request enters the system with a latency *budget*; the absolute
expiry instant derived from it is the request's **deadline**, and it
travels with the work through every stage — ranking-server queue,
Elastic Router virtual channel, LTL frame header, remote DNN/FFU hop.
Each stage checks the deadline *before* spending resources on the
request and drops-and-accounts expired work instead of processing it:
a request that can no longer make its SLO is pure queue poison, and
processing it steals capacity from requests that still can.

This is what turns a flash crowd from congestion collapse (every
request late, goodput → 0) into statistical degradation (excess
requests fail fast, admitted requests stay within SLO) — the same
design point as the paper's bandwidth limiting: "degrade statistically
rather than head-of-line blocking" (§V).

On the wire the deadline rides in the LTL frame header as an unsigned
microsecond timestamp (see :mod:`repro.ltl.frames`); 0 means "no
deadline", and values saturate at the u32 horizon (~71 simulated
minutes — far beyond any experiment here).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

#: Wire encoding of "no deadline" in the LTL header.
NO_DEADLINE_US = 0
#: Saturation point of the u32 microsecond wire encoding.
MAX_DEADLINE_US = 0xFFFFFFFF


@dataclass(frozen=True)
class Deadline:
    """An absolute expiry instant plus the budget it was derived from."""

    expires_at: float
    budget: float = 0.0
    issued_at: float = 0.0

    @classmethod
    def from_budget(cls, now: float, budget: float) -> "Deadline":
        """Stamp a fresh deadline ``budget`` seconds from ``now``."""
        if budget <= 0:
            raise ValueError("deadline budget must be positive")
        return cls(expires_at=now + budget, budget=budget, issued_at=now)

    def expired(self, now: float) -> bool:
        return now > self.expires_at


def encode_deadline_us(expires_at: Optional[float]) -> int:
    """Absolute expiry (seconds) -> u32 microsecond wire field.

    ``None`` (no deadline) encodes as :data:`NO_DEADLINE_US`; a deadline
    that would round down to 0 is bumped to 1 µs so it stays a deadline
    on the wire.
    """
    if expires_at is None:
        return NO_DEADLINE_US
    us = int(expires_at * 1e6)
    return max(1, min(us, MAX_DEADLINE_US))


def decode_deadline_us(deadline_us: int) -> Optional[float]:
    """u32 microsecond wire field -> absolute expiry in seconds."""
    if deadline_us == NO_DEADLINE_US:
        return None
    return deadline_us / 1e6


def expires_at_of(deadline: "Optional[Deadline | float]") -> Optional[float]:
    """Normalize a deadline argument (Deadline or raw seconds) to the
    absolute expiry float every hot path compares against."""
    if deadline is None:
        return None
    if isinstance(deadline, Deadline):
        return deadline.expires_at
    return float(deadline)


@dataclass
class DeadlineStats:
    """Per-stage drop accounting (every drop must be attributable).

    Stages are the canonical :class:`repro.trace.Stage` vocabulary — the
    same names the tracing subsystem attributes latency to, so "where do
    requests die" and "where does time go" line up key-for-key.  Members
    or their dotted string values are both accepted; keys are stored as
    the dotted strings.
    """

    #: canonical stage name (``Stage`` value) -> expired work units
    #: dropped there.
    dropped: Dict[str, int] = field(default_factory=dict)

    def drop(self, stage, count: int = 1) -> None:
        name = str(getattr(stage, "value", stage))
        self.dropped[name] = self.dropped.get(name, 0) + count

    @property
    def total(self) -> int:
        return sum(self.dropped.values())
