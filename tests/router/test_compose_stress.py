"""Stress tests for composed ER networks (rings/meshes under load)."""

import random

from repro.sim import Environment

from .compose import MeshNetwork, RingNetwork


class TestRingUnderLoad:
    def test_all_to_all_burst_no_loss(self):
        env = Environment()
        ring = RingNetwork(env, 6, credits_per_port=8, num_vcs=2)
        got = []
        for i in range(6):
            ring.set_local_handler(i, lambda idx, pl: got.append(
                (idx, pl)))
        expected = 0
        rng = random.Random(0)
        for _ in range(5):
            for src in range(6):
                dst = rng.randrange(6)
                ring.send(src, dst, (src, dst, expected), 64,
                          vc=rng.randrange(2))
                expected += 1
        env.run()
        assert len(got) == expected
        for idx, (src, dst, _seq) in got:
            assert idx == dst

    def test_hot_spot_destination(self):
        """Everyone hammers node 0: all messages still land."""
        env = Environment()
        ring = RingNetwork(env, 5, credits_per_port=8, num_vcs=2)
        got = []
        ring.set_local_handler(0, lambda idx, pl: got.append(pl))
        for src in range(1, 5):
            for i in range(10):
                ring.send(src, 0, (src, i), 96)
        env.run()
        assert len(got) == 40

    def test_per_flow_order_preserved_across_hops(self):
        env = Environment()
        ring = RingNetwork(env, 6, credits_per_port=8, num_vcs=2)
        got = []
        ring.set_local_handler(3, lambda idx, pl: got.append(pl))
        for i in range(15):
            ring.send(0, 3, i, 64, vc=0)
        env.run()
        assert got == list(range(15))


class TestMeshUnderLoad:
    def test_transpose_traffic_pattern(self):
        """(x,y) -> (y,x): a classic adversarial pattern for DOR."""
        env = Environment()
        mesh = MeshNetwork(env, 3, 3, credits_per_port=8, num_vcs=2)
        got = []
        for i in range(9):
            mesh.set_local_handler(i, lambda idx, pl: got.append(
                (idx, pl)))
        sent = 0
        for x in range(3):
            for y in range(3):
                src = mesh.index(x, y)
                dst = mesh.index(y, x)
                if src != dst:
                    mesh.send(src, dst, (src, dst), 64)
                    sent += 1
        env.run()
        assert len(got) == sent
        for idx, (_src, dst) in got:
            assert idx == dst

    def test_long_chain_mesh(self):
        """A 1xN mesh behaves like a pipeline with many hops."""
        env = Environment()
        mesh = MeshNetwork(env, 6, 1, credits_per_port=8, num_vcs=2)
        got = []
        mesh.set_local_handler(5, lambda idx, pl: got.append(pl))
        for i in range(8):
            mesh.send(0, 5, i, 64)
        env.run()
        assert got == list(range(8))
