"""Lease bookkeeping for the Resource Manager.

"The RM provides simple APIs for higher-level Service Managers to easily
manage FPGA-based hardware Components through a lease-based model."

Lease identity is assigned by the granting RM, scoped to its epoch
(``epoch * EPOCH_STRIDE + seq``): IDs stay unique across RM restarts,
and two RMs in one process never share a counter.  Every lease also
carries its grant **fence** — a monotonically increasing token checked
by FpgaManagers so that an SM stranded behind a partition cannot act on
a host the recovered RM has since re-leased.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import List

from .constraints import Constraints

#: Lease IDs are ``rm_epoch * EPOCH_STRIDE + per-epoch sequence``; the
#: stride keeps IDs from different epochs disjoint (no epoch grants a
#: billion leases).
EPOCH_STRIDE = 1_000_000_000


def lease_id_for(epoch: int, seq: int) -> int:
    return epoch * EPOCH_STRIDE + seq


class LeaseState(enum.Enum):
    ACTIVE = "active"
    EXPIRED = "expired"
    RELEASED = "released"
    REVOKED = "revoked"   # RM pulled it back (e.g. hardware failure)


@dataclass(eq=False)
class Lease:
    """A grant of specific FPGAs to a service for a bounded time.

    ``eq=False``: leases are identity objects.  Under a lossy RPC
    channel the SM holds a *copy* of the RM's lease (the two sides of a
    partition must be able to diverge); the ``lease_id`` is the only
    cross-side name for a grant.
    """

    service: str
    hosts: List[int]
    constraints: Constraints
    granted_at: float
    duration: float
    lease_id: int = 0
    #: RM epoch that granted this lease (bumped on every RM restart).
    rm_epoch: int = 0
    #: Fencing token: FpgaManagers reject configure/traffic carrying a
    #: fence older than the newest they have seen for the host.
    fence: int = 0
    state: LeaseState = LeaseState.ACTIVE

    @property
    def expires_at(self) -> float:
        return self.granted_at + self.duration

    def is_active(self, now: float) -> bool:
        return self.state is LeaseState.ACTIVE and now < self.expires_at

    def renew(self, now: float) -> None:
        if self.state is not LeaseState.ACTIVE:
            raise ValueError(f"cannot renew lease in state {self.state}")
        self.granted_at = now
