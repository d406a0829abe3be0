"""Single-event-upset (SEU) model and configuration scrubbing.

Paper §II-B: "Our shell scrubs the configuration state for soft errors and
reports any flipped bits.  We measured an average rate of one bit-flip in
the configuration logic every 1025 machine days. ... Since the scrubbing
logic completes roughly every 30 seconds, our system recovers from hung
roles automatically."

The model: flips arrive as a Poisson process at the measured rate.  Each
flip is detected by the next scrub pass; most are corrected transparently,
a small fraction hangs the role until the scrub-triggered recovery
completes (the paper observed at least one such hang).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, List, Optional

from ..sim import Environment

#: Mean time between configuration bit flips, per machine (seconds).
MEAN_SECONDS_BETWEEN_FLIPS = 1025 * 24 * 3600.0
#: Scrub pass period.
SCRUB_PERIOD_SECONDS = 30.0
#: Fraction of flips that hang the role before the scrubber catches them.
ROLE_HANG_PROBABILITY = 0.02


@dataclass
class SeuEvent:
    """One configuration upset and its resolution."""

    occurred_at: float
    detected_at: float = -1.0
    corrected: bool = False
    caused_role_hang: bool = False


@dataclass
class SeuStats:
    flips: int = 0
    detected: int = 0
    corrected: int = 0
    role_hangs: int = 0
    recoveries: int = 0


class SeuScrubber:
    """Per-FPGA SEU injection + scrubbing loop."""

    def __init__(self, env: Environment, rng: Optional[random.Random] = None,
                 mean_seconds_between_flips: float =
                 MEAN_SECONDS_BETWEEN_FLIPS,
                 scrub_period: float = SCRUB_PERIOD_SECONDS,
                 role_hang_probability: float = ROLE_HANG_PROBABILITY):
        self.env = env
        self.rng = rng or random.Random(0)
        self.mean_seconds_between_flips = mean_seconds_between_flips
        self.scrub_period = scrub_period
        self.role_hang_probability = role_hang_probability
        self.stats = SeuStats()
        self.events: List[SeuEvent] = []
        self._pending: List[SeuEvent] = []
        self.role_hung = False
        #: Called with the event when a hang is recovered by scrubbing.
        self.on_recovery: Optional[Callable[[SeuEvent], None]] = None
        env.process(self._flip_injector())
        env.process(self._scrub_loop())

    def inject_flip(self, role_hang: bool = False) -> SeuEvent:
        """Force one upset now (fault-injection hook); returns the event."""
        event = SeuEvent(occurred_at=self.env.now)
        self.stats.flips += 1
        if role_hang:
            event.caused_role_hang = True
            self.role_hung = True
            self.stats.role_hangs += 1
        self.events.append(event)
        self._pending.append(event)
        return event

    def _flip_injector(self):
        while True:
            wait = self.rng.expovariate(
                1.0 / self.mean_seconds_between_flips)
            yield self.env.timeout(wait)
            event = SeuEvent(occurred_at=self.env.now)
            self.stats.flips += 1
            if self.rng.random() < self.role_hang_probability:
                event.caused_role_hang = True
                self.role_hung = True
                self.stats.role_hangs += 1
            self.events.append(event)
            self._pending.append(event)

    def _scrub_loop(self):
        while True:
            yield self.env.timeout(self.scrub_period)
            for event in self._pending:
                event.detected_at = self.env.now
                event.corrected = True
                self.stats.detected += 1
                self.stats.corrected += 1
                if event.caused_role_hang:
                    self.stats.recoveries += 1
                    self.role_hung = False
                    if self.on_recovery is not None:
                        self.on_recovery(event)
            self._pending.clear()
