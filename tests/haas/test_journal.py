"""Unit tests for the RM write-ahead journal and its replay."""

from repro.haas import Journal


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def make_journal(**kwargs):
    clock = FakeClock()
    journal = Journal(name="test", clock=clock, **kwargs)
    return clock, journal


class TestRecording:
    def test_records_are_sequenced_and_timestamped(self):
        clock, journal = make_journal()
        first = journal.record("epoch", epoch=1)
        clock.now = 2.5
        second = journal.record("register", host=0)
        assert (first.seq, first.time) == (1, 0.0)
        assert (second.seq, second.time) == (2, 2.5)
        assert len(journal) == 2


GRANT = dict(service="svc", granted_at=1.0, duration=10.0,
             epoch=1, fence=1, constraints=None, token="t1")


class TestReplay:
    def test_open_lease_survives_closed_leases_do_not(self):
        clock, journal = make_journal()
        journal.record("epoch", epoch=1)
        journal.record("register", host=0)
        journal.record("register", host=1)
        journal.record("grant", lease_id=1, hosts=[0], **GRANT)
        journal.record("grant", lease_id=2, hosts=[1],
                       **{**GRANT, "fence": 2, "token": "t2"})
        journal.record("release", lease_id=2)
        state = journal.replay()
        assert sorted(state.leases) == [1]
        assert state.leases[1]["hosts"] == [0]
        assert state.registered == [0, 1]
        assert state.max_fence == 2
        assert state.max_epoch == 1

    def test_renew_updates_grant_time(self):
        _, journal = make_journal()
        journal.record("grant", lease_id=1, hosts=[0], **GRANT)
        journal.record("renew", lease_id=1, granted_at=8.0)
        assert journal.replay().leases[1]["granted_at"] == 8.0

    def test_revoke_and_expire_close_leases(self):
        _, journal = make_journal()
        journal.record("grant", lease_id=1, hosts=[0], **GRANT)
        journal.record("grant", lease_id=2, hosts=[1],
                       **{**GRANT, "token": "t2"})
        journal.record("revoke", lease_id=1, cause_host=0)
        journal.record("expire", lease_id=2)
        assert journal.replay().leases == {}

    def test_quarantine_and_unregister(self):
        _, journal = make_journal()
        journal.record("register", host=3)
        journal.record("quarantine", host=3, until=9.0)
        state = journal.replay()
        assert state.quarantine == {3: 9.0}
        assert state.registered == [3]

    def test_fence_barrier_advances_max_fence(self):
        _, journal = make_journal()
        journal.record("grant", lease_id=1, hosts=[0], **GRANT)
        journal.record("fence_barrier", host=0, fence=5)
        assert journal.replay().max_fence == 5


class TestSnapshots:
    def test_replay_starts_from_latest_snapshot(self):
        _, journal = make_journal()
        journal.record("grant", lease_id=1, hosts=[0], **GRANT)
        # Snapshot that deliberately contradicts the earlier records:
        # replay must trust the snapshot, not re-derive from before it.
        journal.snapshot({"leases": {}, "quarantine": {},
                          "registered": [7], "max_fence": 9,
                          "max_epoch": 3})
        journal.record("grant", lease_id=10, hosts=[7],
                       **{**GRANT, "fence": 10, "token": "t9"})
        state = journal.replay()
        assert sorted(state.leases) == [10]
        assert state.registered == [7]
        assert state.max_fence == 10
        assert state.max_epoch == 3
        # Only the post-snapshot tail was replayed.
        assert state.replayed_records == 1

    def test_maybe_snapshot_compacts_at_interval(self):
        _, journal = make_journal(snapshot_interval=4)
        state_fn = lambda: {"leases": {}, "registered": []}  # noqa: E731
        for i in range(3):
            journal.record("grant", lease_id=i, hosts=[i], **GRANT)
            assert not journal.maybe_snapshot(state_fn)
        journal.record("grant", lease_id=3, hosts=[3], **GRANT)
        assert journal.maybe_snapshot(state_fn)
        # The counter reset: the next record does not trigger another.
        journal.record("grant", lease_id=4, hosts=[4], **GRANT)
        assert not journal.maybe_snapshot(state_fn)

    def test_evidence_records_do_not_count_toward_compaction(self):
        _, journal = make_journal(snapshot_interval=2)
        state_fn = lambda: {}  # noqa: E731
        for _ in range(10):
            journal.record("fence_reject", host=0, op="traffic",
                           fence=0, current=1)
        assert not journal.maybe_snapshot(state_fn)
