"""The Resource Manager's write-ahead journal.

Every durable control-plane decision — lease grants, renews, releases,
revocations, expirations, quarantines, fence movements, epoch bumps —
is appended here *before* it takes effect in the RM's in-memory tables,
so a crashed RM can be restarted and its state reconstructed by replay
(:meth:`Journal.replay`).  Periodic snapshots bound replay time the way
log compaction would bound a real WAL; the full record history is kept
in memory for the campaign auditor (:mod:`repro.haas.audit`), which
re-derives the no-double-allocation and fencing invariants from it.

The journal is deterministic: records carry simulation time and a
monotonic sequence number, nothing wall-clock or random.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional

#: Record kinds with durable replay semantics.  Kinds not listed here
#: (``fence_reject``, ``crash``, ``restart`` ...) are evidence for the
#: auditor but do not change recovered state.
REPLAYED_KINDS = frozenset({
    "epoch", "register", "grant", "renew", "release", "revoke",
    "expire", "quarantine", "fence_barrier", "snapshot",
})


@dataclass
class JournalRecord:
    seq: int
    time: float
    kind: str
    data: Dict[str, Any] = field(default_factory=dict)


@dataclass
class RecoveredState:
    """What journal replay hands a restarting Resource Manager."""

    #: lease_id -> lease fields (service, hosts, granted_at, duration,
    #: epoch, fence, constraints, token) for leases still open at the
    #: replay point.
    leases: Dict[int, Dict[str, Any]] = field(default_factory=dict)
    #: host -> quarantine-until time.
    quarantine: Dict[int, float] = field(default_factory=dict)
    registered: List[int] = field(default_factory=list)
    max_fence: int = 0
    max_epoch: int = 0
    replayed_records: int = 0


class Journal:
    """Append-only, deterministic WAL with snapshot compaction."""

    def __init__(self, name: str = "rm",
                 clock: Optional[Callable[[], float]] = None,
                 snapshot_interval: int = 256):
        self.name = name
        self._clock = clock or (lambda: 0.0)
        self.snapshot_interval = snapshot_interval
        self.records: List[JournalRecord] = []
        self._seq = 0
        self._last_snapshot_index: Optional[int] = None
        self._records_since_snapshot = 0

    def bind_clock(self, clock: Callable[[], float]) -> None:
        self._clock = clock

    def __len__(self) -> int:
        return len(self.records)

    # ------------------------------------------------------------------
    # Writing
    # ------------------------------------------------------------------
    def record(self, kind: str, **data: Any) -> JournalRecord:
        self._seq += 1
        rec = JournalRecord(seq=self._seq, time=self._clock(),
                            kind=kind, data=data)
        self.records.append(rec)
        if kind in REPLAYED_KINDS and kind != "snapshot":
            self._records_since_snapshot += 1
        return rec

    def snapshot(self, state: Dict[str, Any]) -> JournalRecord:
        """Append a full-state snapshot; replay starts from the latest."""
        rec = self.record("snapshot", state=state)
        self._last_snapshot_index = len(self.records) - 1
        self._records_since_snapshot = 0
        return rec

    def maybe_snapshot(self,
                       state_fn: Callable[[], Dict[str, Any]]) -> bool:
        """Snapshot if enough replayed records accumulated since the
        last one (log compaction for replay time, not space — history
        is retained for the auditor)."""
        if self._records_since_snapshot < self.snapshot_interval:
            return False
        self.snapshot(state_fn())
        return True

    # ------------------------------------------------------------------
    # Replay
    # ------------------------------------------------------------------
    def replay(self, now: Optional[float] = None) -> RecoveredState:
        """Reconstruct RM state from the latest snapshot + tail.

        ``now`` is informational only — expiry of recovered leases is
        the restarted RM's decision, not the journal's.
        """
        state = RecoveredState()
        start = 0
        if self._last_snapshot_index is not None:
            snap = self.records[self._last_snapshot_index].data["state"]
            state.leases = {lease_id: dict(fields) for lease_id, fields
                            in snap.get("leases", {}).items()}
            state.quarantine = dict(snap.get("quarantine", {}))
            state.registered = list(snap.get("registered", []))
            state.max_fence = snap.get("max_fence", 0)
            state.max_epoch = snap.get("max_epoch", 0)
            start = self._last_snapshot_index + 1
        registered = set(state.registered)
        for rec in self.records[start:]:
            kind, data = rec.kind, rec.data
            if kind == "epoch":
                state.max_epoch = max(state.max_epoch, data["epoch"])
            elif kind == "register":
                registered.add(data["host"])
            elif kind == "grant":
                state.leases[data["lease_id"]] = {
                    "service": data["service"],
                    "hosts": list(data["hosts"]),
                    "granted_at": data["granted_at"],
                    "duration": data["duration"],
                    "epoch": data["epoch"],
                    "fence": data["fence"],
                    "constraints": data.get("constraints"),
                    "token": data.get("token"),
                }
                state.max_fence = max(state.max_fence, data["fence"])
            elif kind == "renew":
                lease = state.leases.get(data["lease_id"])
                if lease is not None:
                    lease["granted_at"] = data["granted_at"]
            elif kind in ("release", "revoke", "expire"):
                state.leases.pop(data["lease_id"], None)
            elif kind == "quarantine":
                state.quarantine[data["host"]] = data["until"]
            elif kind == "fence_barrier":
                state.max_fence = max(state.max_fence, data["fence"])
            state.replayed_records += 1
        state.registered = sorted(registered)
        return state
