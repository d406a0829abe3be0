"""Tests for the fault-injecting test transports."""

import pytest

from repro.ltl import DirectTransport, FaultModel, LtlEngine
from repro.ltl.frames import make_ack
from repro.sim import Environment


class TestFaultModel:
    def test_probability_bounds_validated(self):
        with pytest.raises(ValueError):
            FaultModel(drop_probability=1.5)
        with pytest.raises(ValueError):
            FaultModel(reorder_probability=-0.1)
        with pytest.raises(ValueError):
            FaultModel(duplicate_probability=2.0)

    def test_defaults_are_clean(self):
        faults = FaultModel()
        assert faults.drop_probability == 0.0
        assert faults.reorder_probability == 0.0
        assert faults.duplicate_probability == 0.0


class TestDirectTransport:
    def test_duplicate_registration_rejected(self):
        env = Environment()
        transport = DirectTransport(env)
        transport.register(LtlEngine(env, 0))
        with pytest.raises(ValueError):
            transport.register(LtlEngine(env, 0))

    def test_unknown_destination_silently_drops(self):
        env = Environment()
        transport = DirectTransport(env)
        transport.register(LtlEngine(env, 0))
        transport.send_frame(99, make_ack(0, 0))  # no such host
        env.run(until=1e-3)  # must not raise

    def test_delay_applied(self):
        env = Environment()
        transport = DirectTransport(env, delay=7e-6)
        received = []
        engine = LtlEngine(env, 1)

        class Spy:
            def receive_frame(self, frame, ecn_marked=False):
                received.append(env.now)

            host_index = 1
            transport = None

        transport._engines[1] = Spy()
        transport.send_frame(1, make_ack(0, 0))
        env.run(until=1e-3)
        assert received == [pytest.approx(7e-6)]

    def test_drop_counter(self):
        env = Environment()
        transport = DirectTransport(
            env, faults=FaultModel(drop_probability=1.0))
        transport.register(LtlEngine(env, 1))
        for _ in range(10):
            transport.send_frame(1, make_ack(0, 0))
        assert transport.frames_dropped == 10

    def test_duplicate_counter(self):
        env = Environment()
        transport = DirectTransport(
            env, faults=FaultModel(duplicate_probability=1.0))
        transport.register(LtlEngine(env, 1))
        transport.send_frame(1, make_ack(0, 0))
        assert transport.frames_duplicated == 1
