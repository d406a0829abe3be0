"""Windowed stepping must be exactly equivalent to one long run.

Experiments advance one simulation with repeated bounded
``run(until=...)`` calls (Fig. 10 measures its pairs one after another
through ``ConfigurableCloud.measure_ltl_rtt``), and the determinism
contract says any such split gives the run it splits.  These tests pin
that contract:

* N bounded runs over exact window boundaries produce bit-identical
  state (events processed, clock, schedule length, observable event
  order) to a single ``run(until=horizon)``;
* events landing at exactly a window boundary execute *inside* that
  window (the stop sentinel sorts after every same-instant event, even
  one scheduled during that instant);
* a run terminated by an exception removes its own stop sentinel —
  the regression fixed here left a phantom entry in the schedule that
  corrupted ``len`` and the next run's event accounting.
"""

import pytest

from repro.core.cloud import ConfigurableCloud
from repro.sim import Environment


def _exact_boundaries(horizon, windows):
    """Window end times whose last element is exactly ``horizon``.

    Accumulating ``t += horizon / windows`` drifts in the last ulp and
    would make the final ``env.now`` differ from the one-shot run for
    reasons unrelated to the kernel; divide fresh each time instead.
    """
    bounds = [horizon * (i + 1) / windows for i in range(windows)]
    bounds[-1] = horizon  # multiply-then-divide can be off by one ulp
    return bounds


def _kernel_digest(windows):
    """Run a same-instant-heavy workload windowed; digest all state."""
    env = Environment()
    log = []

    def ticker(env, tag, period):
        i = 0
        while True:
            yield env.timeout(period)
            log.append((env.now, tag, i))
            i += 1

    def cascade(env):
        # call_later(0) chains landing exactly on window boundaries.
        for i in range(40):
            yield env.timeout(5e-6)
            env.call_later(0.0, log.append, (env.now, "cb", i))
            env.call_later(0.0, lambda: log.append((env.now, "late", 0)))

    env.process(ticker(env, "a", 1e-6))
    env.process(ticker(env, "b", 1e-6))
    env.process(cascade(env))
    horizon = 200e-6
    if windows is None:
        env.run(until=horizon)
    else:
        for t in _exact_boundaries(horizon, windows):
            env.run(until=t)
    return (env.events_processed, env.now, len(env), tuple(log))


class TestWindowedEquivalence:
    @pytest.mark.parametrize("windows", [2, 7, 50, 200, 400])
    def test_windowed_matches_one_shot(self, windows):
        assert _kernel_digest(windows) == _kernel_digest(None)

    def test_zero_width_windows_are_noops(self):
        env = Environment()
        env.process(_drip(env))
        env.run(until=50e-6)
        snapshot = (env.events_processed, env.now, len(env))
        for _ in range(3):
            env.run(until=env.now)  # zero-width window
        assert (env.events_processed, env.now, len(env)) == snapshot

    def test_boundary_instant_events_run_inside_window(self):
        """An event due at exactly ``until`` executes in that window."""
        env = Environment()
        fired = []

        def at_boundary():
            fired.append("deferred")
            env.call_later(0.0, fired.append, "chained")

        def proc(env):
            yield env.timeout(10e-6)
            fired.append("timeout")

        env.call_later(10e-6, at_boundary)
        env.process(proc(env))
        env.run(until=10e-6)
        assert fired == ["deferred", "timeout", "chained"]
        assert len(env) == 0

    def test_fig10_workload_windowed_bit_identical(self):
        """End-to-end: the Fig. 10 measurement path, windowed vs not."""

        def digest(windows):
            cloud = ConfigurableCloud(seed=7)
            for h in (0, 1, 2, 40):
                cloud.add_server(h, enroll=False)
            cloud.connect(0, 1)
            cloud.connect(2, 40)
            shell_a, shell_c = cloud.shell(0), cloud.shell(2)

            def driver(env):
                for _ in range(30):
                    shell_a.remote_send(1, b"\x00" * 64, 64)
                    shell_c.remote_send(40, b"\x01" * 64, 64)
                    yield env.timeout(50e-6)

            cloud.env.process(driver(cloud.env))
            horizon = 30 * 50e-6 + 5e-3
            if windows is None:
                cloud.env.run(until=horizon)
            else:
                for t in _exact_boundaries(horizon, windows):
                    cloud.env.run(until=t)
            rtts = tuple(shell_a.ltl.rtt_samples()) + \
                tuple(shell_c.ltl.rtt_samples())
            return (cloud.env.events_processed, cloud.env.now,
                    len(cloud.env), rtts)

        one = digest(None)
        assert one[3], "workload produced no RTT samples"
        for windows in (3, 61):
            assert digest(windows) == one


def _drip(env):
    while True:
        yield env.timeout(1e-6)


#: Exactly representable tick (~0.95us): sums of DT never drift, so
#: event counts at window boundaries are deterministic, not ulp-luck.
DT = 2.0 ** -20


class TestStopSentinelCleanup:
    def _env_with_bomb(self):
        env = Environment()

        def boom(env):
            yield env.timeout(5 * DT)
            raise RuntimeError("boom")

        def drip(env):
            while True:
                yield env.timeout(DT)

        env.process(boom(env))
        env.process(drip(env))
        return env

    @staticmethod
    def _assert_only_drip_queued(env):
        """The drip's step at 5 DT is the one queued entry: the bomb's
        step, due before it, raised at once."""
        assert len(env) == 1
        processed = env.events_processed
        env.run(until=5 * DT)
        assert env.events_processed == processed + 1
        assert len(env) == 1

    def test_exception_leaves_no_sentinel(self):
        env = self._env_with_bomb()
        with pytest.raises(RuntimeError):
            env.run(until=100 * DT)
        # The drip process is still scheduled; the sentinel must not be.
        self._assert_only_drip_queued(env)

    def test_events_processed_exact_across_failed_window(self):
        env = self._env_with_bomb()
        with pytest.raises(RuntimeError):
            env.run(until=100 * DT)
        processed = env.events_processed
        # Resume with a fresh window: the stale sentinel (pre-fix) was
        # popped here and silently counted as a simulation event.
        env.run(until=100 * DT)
        # drip steps at 5..100 DT inclusive: 96 entries, nothing more.
        assert env.events_processed - processed == 96

    def test_exception_far_before_horizon_overflow_sentinel(self):
        """A sentinel far beyond the pending events lives in the heap,
        not the head slot; removal must find it there."""
        env = self._env_with_bomb()
        with pytest.raises(RuntimeError):
            env.run(until=10.0)  # far past every pending event
        self._assert_only_drip_queued(env)
        env.run(until=64 * DT)
        assert env.now == 64 * DT

    def test_sentinel_removed_when_it_is_head(self):
        env = Environment()

        def boom(env):
            yield env.timeout(5e-6)
            raise RuntimeError("boom")

        env.process(boom(env))
        with pytest.raises(RuntimeError):
            env.run(until=100e-6)
        # Nothing else scheduled: the sentinel sat in the head slot.
        assert len(env) == 0
        ep = env.events_processed
        env.run(until=200e-6)
        assert env.events_processed == ep

    def test_run_until_resumes_after_exception(self):
        """Windowed stepping across a failed window equals a healthy
        windowed run of the surviving processes."""

        def digest(with_bomb):
            env = Environment()
            log = []

            def ticker(env):
                i = 0
                while True:
                    yield env.timeout(1e-6)
                    log.append((env.now, i))
                    i += 1

            env.process(ticker(env))
            if with_bomb:
                def boom(env):
                    yield env.timeout(5.5e-6)
                    raise RuntimeError("boom")
                env.process(boom(env))
                with pytest.raises(RuntimeError):
                    env.run(until=10e-6)
            env.run(until=10e-6)
            env.run(until=20e-6)
            return (env.now, tuple(log))

        healthy = digest(False)
        failed = digest(True)
        assert failed[0] == healthy[0]
        assert failed[1] == healthy[1]
