"""Tests for host addressing (index <-> coords <-> IP/MAC)."""

import pytest

from repro.net.addressing import (
    HostCoordinates,
    host_index_to_coords,
    ip_address,
    mac_address,
    mac_to_host_index,
)


class TestCoordinates:
    def test_index_zero(self):
        coords = host_index_to_coords(0, 24, 40)
        assert coords == HostCoordinates(pod=0, tor=0, slot=0)

    def test_one_tor_boundary(self):
        coords = host_index_to_coords(24, 24, 40)
        assert coords == HostCoordinates(pod=0, tor=1, slot=0)

    def test_one_pod_boundary(self):
        coords = host_index_to_coords(960, 24, 40)
        assert coords == HostCoordinates(pod=1, tor=0, slot=0)

    def test_roundtrip_many(self):
        for index in (0, 1, 23, 24, 959, 960, 12345, 250_000):
            c = host_index_to_coords(index, 24, 40)
            assert (c.pod * 40 + c.tor) * 24 + c.slot == index

    def test_negative_index_rejected(self):
        with pytest.raises(ValueError):
            host_index_to_coords(-1, 24, 40)

    def test_same_tor_and_pod_predicates(self):
        a = host_index_to_coords(0, 24, 40)
        b = host_index_to_coords(23, 24, 40)
        c = host_index_to_coords(24, 24, 40)
        d = host_index_to_coords(960, 24, 40)
        assert a.same_tor(b)
        assert not a.same_tor(c)
        assert a.same_pod(c)
        assert not a.same_pod(d)


class TestAddresses:
    def test_ip_format(self):
        assert ip_address(0x030711) == "10.3.7.17"

    def test_ip_rejects_out_of_range(self):
        for index in (-1, 2 ** 24):
            with pytest.raises(ValueError):
                ip_address(index)

    def test_mac_roundtrip(self):
        for index in (0, 1, 255, 256, 123456, 250_000):
            assert mac_to_host_index(mac_address(index)) == index

    def test_mac_is_locally_administered(self):
        assert mac_address(5).startswith("02:")

    def test_mac_rejects_wrong_prefix(self):
        with pytest.raises(ValueError):
            mac_to_host_index("00:00:00:00:00:05")

    def test_mac_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            mac_address(2 ** 40)
