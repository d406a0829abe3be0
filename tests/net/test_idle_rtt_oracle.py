"""An exact oracle for the idle Fig. 10 floor.

With no background traffic nothing queues, so every LTL round trip must
equal the sum of its per-hop constants: the data frame's one-way trip,
the receiver's rx pipeline, the ACK's one-way trip and the sender's ACK
processing.  The RTT clock starts when LTL transmits (after its tx
pipeline) and stops once the ACK is processed.  The terms are summed
here from the configuration constants, independently of
``repro.experiments.scale.BoundaryPathModel``.
"""

import pytest

from repro.core import ConfigurableCloud
from repro.fpga import ShellConfig
from repro.ltl import LTL_HEADER_BYTES, LtlConfig
from repro.net import TopologyConfig, idle
from repro.net.addressing import host_index_to_coords
from repro.net.links import FIBER_METERS_PER_SECOND
from repro.net.packet import (
    ETHERNET_FCS_BYTES,
    ETHERNET_HEADER_BYTES,
    IPV4_HEADER_BYTES,
    MIN_FRAME_BYTES,
    UDP_HEADER_BYTES,
)
from repro.net.topology import pod_distance_m

SEED = 3
PAYLOAD_BYTES = 64
#: One pair per tier: L0, L1 and two L2 pairs (different pod fibers).
PAIRS = [(0, 1), (8, 30), (12, 5000), (14, 120000)]


def wire_bytes(ltl_payload_bytes):
    """Ethernet frame carrying one LTL frame over UDP/IPv4."""
    return max(ETHERNET_HEADER_BYTES + ETHERNET_FCS_BYTES
               + IPV4_HEADER_BYTES + UDP_HEADER_BYTES + LTL_HEADER_BYTES
               + ltl_payload_bytes, MIN_FRAME_BYTES)


def path(config, src, dst):
    """(links as (metres, bits/s), switch forwarding latencies)."""
    lat = config.latency
    a = host_index_to_coords(src, config.hosts_per_tor, config.tors_per_pod)
    b = host_index_to_coords(dst, config.hosts_per_tor, config.tors_per_pod)
    host = (lat.host_tor_distance_m, lat.host_rate_bps)
    if (a.pod, a.tor) == (b.pod, b.tor):
        return [host, host], [lat.tor_latency]
    tor_l1 = (lat.tor_l1_distance_m, lat.tor_uplink_rate_bps)
    if a.pod == b.pod:
        return ([host, tor_l1, tor_l1, host],
                [lat.tor_latency, lat.l1_latency, lat.tor_latency])
    up = (pod_distance_m(config, SEED, a.pod), lat.l1_uplink_rate_bps)
    down = (pod_distance_m(config, SEED, b.pod), lat.l1_uplink_rate_bps)
    return ([host, tor_l1, up, down, tor_l1, host],
            [lat.tor_latency, lat.l1_latency, lat.l2_latency,
             lat.l1_latency, lat.tor_latency])


def one_way(config, shell, src, dst, nbytes):
    links, switches = path(config, src, dst)
    wire = sum(metres / FIBER_METERS_PER_SECOND + nbytes * 8 / rate
               for metres, rate in links)
    # Each LTL send crosses the MAC tx pipeline twice: once in the LTL
    # transport (FabricLtlTransport.send_frame) and once on the shell's
    # TOR-facing output (Shell._mac_to_tor).
    return (2 * shell.mac_tx_latency + wire + sum(switches)
            + shell.mac_rx_latency)


def expected_rtt(config, src, dst):
    shell, ltl = ShellConfig(), LtlConfig()
    return (one_way(config, shell, src, dst, wire_bytes(PAYLOAD_BYTES))
            + ltl.rx_latency
            + one_way(config, shell, dst, src, wire_bytes(0))
            + ltl.ack_rx_latency)


@pytest.fixture(scope="module")
def cloud():
    cloud = ConfigurableCloud(
        topology=TopologyConfig(background=idle()), seed=SEED)
    for host in {h for pair in PAIRS for h in pair}:
        cloud.add_server(host, enroll=False)
    return cloud


@pytest.mark.parametrize("src,dst", PAIRS)
def test_idle_rtt_equals_per_hop_sum(cloud, src, dst):
    samples = cloud.measure_ltl_rtt(src, dst, messages=20,
                                    payload_bytes=PAYLOAD_BYTES)
    assert len(samples) == 20
    expected = expected_rtt(cloud.fabric.config, src, dst)
    assert max(abs(s - expected) for s in samples) <= 1e-12
