"""Admission control and load shedding for a ranking server.

The paper's software datacenter runs "a dynamic load balancing
mechanism that caps the incoming traffic when tail latencies begin
exceeding acceptable thresholds" (§VI, Fig. 7/8); this module is that
mechanism made explicit, replacing unbounded queueing with a
CoDel-style queue-delay controller driving a three-rung degradation
ladder:

``FULL``
    Normal service: accelerated feature extraction over the whole
    candidate set.
``DEGRADED``
    Brownout: the candidate set is pruned to a configured fraction
    (and, when the FPGA is unhealthy, features run on the software
    model) — cheaper per query, statistically slightly worse results.
``SHED``
    Reject-with-fast-error: the request is refused in microseconds so
    the client can retry elsewhere, instead of timing out seconds
    later at the back of a hopeless queue.

The controller watches the *measured queue delay* of admitted requests
(time from arrival to getting a core), CoDel-style: a request only
counts against the server when the **minimum** delay over a sliding
interval exceeds the target — transient bursts are free, standing
queues are not.  While the standing queue persists, an adaptive shed
fraction ramps up multiplicatively (and decays once the queue drains),
which reaches drop rates a pure CoDel control law cannot under a 5x
flash crowd.  All decisions are deterministic: shedding uses a debt
accumulator, not a random draw, so seeded runs replay bit-identically.

FPGA health feeds the ladder directly: a server whose accelerator left
``HEALTHY`` starts at ``DEGRADED`` (software-model fallback) no matter
what the queue says.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional


class ServiceLevel(enum.Enum):
    """The degradation ladder, best to worst."""

    FULL = "full"
    DEGRADED = "degraded"
    SHED = "shed"


@dataclass
class AdmissionConfig:
    """Tunables of the queue-delay controller."""

    #: Acceptable standing queue delay (CoDel's ``target``); above it
    #: the server degrades (browns out) before it sheds.
    target_delay: float = 0.5e-3
    #: Sliding window over which the minimum delay must exceed the
    #: target before the controller engages (CoDel's ``interval``).
    interval: float = 50e-3
    #: Queue delay at which shedding (not just degrading) starts,
    #: as a multiple of ``target_delay``.
    shed_threshold: float = 2.0
    #: Additive-increase step of the shed fraction per control period
    #: while the queue keeps standing above the shed threshold.
    shed_step: float = 0.05
    #: Multiplicative decay of the shed fraction per control period
    #: once the queue is back under target.
    shed_decay: float = 0.5
    #: Never shed more than this fraction of arrivals — some traffic
    #: must keep flowing or the controller goes blind.
    max_shed_fraction: float = 0.98
    #: Control period for shed-fraction updates.
    control_period: float = 10e-3


class CoDelController:
    """Tracks whether a *standing* queue exists, CoDel-style.

    Feed it every measured queue delay via :meth:`on_delay`; it keeps
    the running minimum over the current interval.  ``above_target``
    turns True only after the minimum delay has stayed above target
    for a full interval — the controlled-delay insight that separates
    good bursts from bad queues.
    """

    def __init__(self, config: AdmissionConfig, start_time: float = 0.0):
        self.config = config
        #: When delays first went above target (None = currently below).
        self._first_above: Optional[float] = None
        self._engaged = False
        #: Minimum delay seen in the current observation interval.
        self._interval_min: Optional[float] = None
        self._interval_started = start_time
        self.last_delay = 0.0
        self.samples = 0

    @property
    def engaged(self) -> bool:
        """True while a standing queue (min delay > target) persists."""
        return self._engaged

    def min_delay(self) -> float:
        """Minimum queue delay observed in the current interval."""
        if self._interval_min is None:
            return 0.0
        return self._interval_min

    def on_delay(self, delay: float, now: float) -> None:
        """Record one measured queue delay."""
        cfg = self.config
        self.samples += 1
        self.last_delay = delay
        if self._interval_min is None or delay < self._interval_min:
            self._interval_min = delay
        if now - self._interval_started >= cfg.interval:
            self._evaluate(now)

    def _evaluate(self, now: float) -> None:
        cfg = self.config
        minimum = self._interval_min if self._interval_min is not None \
            else 0.0
        if minimum > cfg.target_delay:
            if self._first_above is None:
                self._first_above = now
            elif not self._engaged and \
                    now - self._first_above >= cfg.interval:
                self._engaged = True
        else:
            self._first_above = None
            self._engaged = False
        self._interval_min = None
        self._interval_started = now


@dataclass
class AdmissionStats:
    """Ladder outcomes, by decision."""

    admitted_full: int = 0
    admitted_degraded: int = 0
    shed: int = 0
    level_changes: int = 0


class AdmissionController:
    """CoDel signal + FPGA health -> per-request service level.

    Call :meth:`on_queue_delay` with every admitted request's measured
    core-queue delay, keep :attr:`fpga_healthy` current, and ask
    :meth:`admit` for each arrival's fate.
    """

    def __init__(self, config: Optional[AdmissionConfig] = None,
                 start_time: float = 0.0):
        self.config = config or AdmissionConfig()
        self.codel = CoDelController(self.config, start_time=start_time)
        self.stats = AdmissionStats()
        #: Mirrors the bound FpgaManager's health (True = HEALTHY).
        self.fpga_healthy = True
        self.shed_fraction = 0.0
        self._shed_debt = 0.0
        self._last_control = start_time
        self._level = ServiceLevel.FULL

    # ------------------------------------------------------------------
    @property
    def level(self) -> ServiceLevel:
        """The ladder rung the *next* arrival will be offered (shedding
        aside)."""
        return self._level

    @property
    def engaged(self) -> bool:
        """True while the controller is actively protecting the server."""
        return self._level is not ServiceLevel.FULL \
            or self.shed_fraction > 0.0

    def on_queue_delay(self, delay: float, now: float) -> None:
        """Feed one measured queue delay (arrival -> core grant)."""
        self.codel.on_delay(delay, now)
        self._control(now)

    def _control(self, now: float) -> None:
        cfg = self.config
        if now - self._last_control < cfg.control_period:
            return
        self._last_control = now
        standing = self.codel.engaged
        hot = standing and \
            self.codel.last_delay > cfg.target_delay * cfg.shed_threshold
        if hot:
            # Standing queue beyond the shed threshold: ramp shedding.
            self.shed_fraction = min(
                cfg.max_shed_fraction,
                self.shed_fraction + cfg.shed_step
                + self.shed_fraction * cfg.shed_step * 4)
        elif not standing:
            self.shed_fraction *= cfg.shed_decay
            if self.shed_fraction < 1e-3:
                self.shed_fraction = 0.0
        new_level = ServiceLevel.FULL
        if not self.fpga_healthy or standing:
            new_level = ServiceLevel.DEGRADED
        if new_level is not self._level:
            self._level = new_level
            self.stats.level_changes += 1

    # ------------------------------------------------------------------
    def admit(self, now: float,
              predicted_delay: float = 0.0) -> ServiceLevel:
        """Decide one arrival's fate; deterministic given the feed.

        ``predicted_delay`` is the *instantaneous* queue-delay estimate
        at the door (queue length x expected service time).  The CoDel
        signal is measured from requests leaving the queue, so it lags
        a fast-rising flash crowd by one full queue draining; the
        prediction closes that loop instantly: an arrival that would
        wait past ``shed_threshold x target`` is shed on the spot, which
        bounds the queue delay of everything admitted behind it.
        """
        cfg = self.config
        self._control(now)
        if predicted_delay > cfg.target_delay * cfg.shed_threshold:
            self.stats.shed += 1
            return ServiceLevel.SHED
        if self.shed_fraction > 0.0:
            # Deterministic fractional shedding via a debt accumulator:
            # shed_fraction=0.4 sheds exactly 2 of every 5 arrivals.
            self._shed_debt += self.shed_fraction
            if self._shed_debt >= 1.0:
                self._shed_debt -= 1.0
                self.stats.shed += 1
                return ServiceLevel.SHED
        if self._level is ServiceLevel.DEGRADED \
                or predicted_delay > cfg.target_delay:
            self.stats.admitted_degraded += 1
            return ServiceLevel.DEGRADED
        self.stats.admitted_full += 1
        return ServiceLevel.FULL
