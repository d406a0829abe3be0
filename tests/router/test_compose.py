"""Tests for multi-ER composition (rings and meshes)."""

import pytest

from repro.sim import Environment

from .compose import MeshNetwork, RingNetwork


class TestRing:
    def _ring(self, n=6):
        env = Environment()
        ring = RingNetwork(env, n, credits_per_port=8, num_vcs=2)
        got = []
        for i in range(n):
            ring.set_local_handler(i, lambda idx, pl: got.append((idx, pl)))
        return env, ring, got

    def test_neighbor_delivery(self):
        env, ring, got = self._ring()
        ring.send(0, 1, "next", 32)
        env.run()
        assert got == [(1, "next")]

    def test_delivery_around_the_ring(self):
        env, ring, got = self._ring()
        ring.send(0, 3, "far", 64)
        env.run()
        assert got == [(3, "far")]

    def test_wraparound_short_way(self):
        env, ring, got = self._ring()
        ring.send(5, 0, "wrap", 32)
        env.run()
        assert got == [(0, "wrap")]

    def test_self_send(self):
        env, ring, got = self._ring()
        ring.send(2, 2, "me", 32)
        env.run()
        assert got == [(2, "me")]

    def test_shortest_direction_choice(self):
        ring = RingNetwork(Environment(), 6)
        assert ring.next_hop_port(0, 1) == RingNetwork.CW
        assert ring.next_hop_port(0, 5) == RingNetwork.CCW
        assert ring.next_hop_port(0, 2) == RingNetwork.CW
        assert ring.next_hop_port(0, 4) == RingNetwork.CCW

    def test_all_pairs_delivered(self):
        env, ring, got = self._ring(5)
        expected = 0
        for src in range(5):
            for dst in range(5):
                if src != dst:
                    ring.send(src, dst, (src, dst), 32)
                    expected += 1
        env.run()
        assert len(got) == expected
        for idx, (src, dst) in got:
            assert idx == dst

    def test_too_small_ring_rejected(self):
        with pytest.raises(ValueError):
            RingNetwork(Environment(), 1)


class TestMesh:
    def _mesh(self, w=3, h=3):
        env = Environment()
        mesh = MeshNetwork(env, w, h, credits_per_port=8, num_vcs=2)
        got = []
        for i in range(w * h):
            mesh.set_local_handler(i, lambda idx, pl: got.append((idx, pl)))
        return env, mesh, got

    def test_corner_to_corner(self):
        env, mesh, got = self._mesh()
        mesh.send(0, 8, "diag", 64)
        env.run()
        assert got == [(8, "diag")]

    def test_dimension_order_routing(self):
        mesh = MeshNetwork(Environment(), 3, 3)
        # From (0,0) to (2,1): X first.
        assert mesh.next_hop_port(0, mesh.index(2, 1)) == MeshNetwork.EAST
        # From (2,0) to (2,2): Y only.
        assert mesh.next_hop_port(mesh.index(2, 0),
                                  mesh.index(2, 2)) == MeshNetwork.NORTH

    def test_coords_roundtrip(self):
        mesh = MeshNetwork(Environment(), 4, 3)
        for i in range(12):
            x, y = mesh.coords(i)
            assert mesh.index(x, y) == i

    def test_all_pairs_small_mesh(self):
        env, mesh, got = self._mesh(2, 2)
        expected = 0
        for src in range(4):
            for dst in range(4):
                if src != dst:
                    mesh.send(src, dst, (src, dst), 32)
                    expected += 1
        env.run()
        assert len(got) == expected

    def test_invalid_dimensions(self):
        with pytest.raises(ValueError):
            MeshNetwork(Environment(), 0, 3)
