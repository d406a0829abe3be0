"""An exact oracle for the idle Fig. 10 floor, hop by hop.

With no background traffic nothing queues, so every LTL round trip must
equal the sum of its per-hop constants: the data frame's one-way trip,
the receiver's rx pipeline, the ACK's one-way trip and the sender's ACK
processing.  The RTT clock starts when LTL transmits (after its tx
pipeline) and stops once the ACK is processed.  The terms are summed
here from the configuration constants, independently of the datapath.

The same terms check the trace: every hop a traced request taps on its
way from one role to another must read its own closed-form term, so a
failing case names the layer whose cost moved.
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
from repro.router.elastic_router import DEFAULT_FREQ_HZ
from repro.trace import TraceRecorder

SEED = 3
PAYLOAD_BYTES = 64
#: One pair per tier: L0, L1 and two L2 pairs (different pod fibers).
PAIRS = [(0, 1), (8, 30), (12, 5000), (14, 120000)]

#: The traced requests of the hop test: 256-B role messages, sent far
#: enough apart that none waits on another.
TRACED_BYTES = 256
TRACED_REQUESTS = 5
TRACED_GAP = 100e-6
#: The shell's Elastic Router: 32-B flits, one per cycle.
ER_FLIT_BYTES = 32
ER_CYCLE = 1 / DEFAULT_FREQ_HZ


def wire_bytes(ltl_payload_bytes):
    """Ethernet frame carrying one LTL frame over UDP/IPv4."""
    return max(ETHERNET_HEADER_BYTES + ETHERNET_FCS_BYTES
               + IPV4_HEADER_BYTES + UDP_HEADER_BYTES + LTL_HEADER_BYTES
               + ltl_payload_bytes, MIN_FRAME_BYTES)


def path(config, src, dst):
    """(links as (metres, bits/s), switches as (tier, forwarding
    latency)), in the order a packet crosses them."""
    lat = config.latency
    a = host_index_to_coords(src, config.hosts_per_tor, config.tors_per_pod)
    b = host_index_to_coords(dst, config.hosts_per_tor, config.tors_per_pod)
    host = (lat.host_tor_distance_m, lat.host_rate_bps)
    tor, l1 = ("tor", lat.tor_latency), ("l1", lat.l1_latency)
    if (a.pod, a.tor) == (b.pod, b.tor):
        return [host, host], [tor]
    tor_l1 = (lat.tor_l1_distance_m, lat.tor_uplink_rate_bps)
    if a.pod == b.pod:
        return [host, tor_l1, tor_l1, host], [tor, l1, tor]
    up = (pod_distance_m(config, SEED, a.pod), lat.l1_uplink_rate_bps)
    down = (pod_distance_m(config, SEED, b.pod), lat.l1_uplink_rate_bps)
    return ([host, tor_l1, up, down, tor_l1, host],
            [tor, l1, ("l2", lat.l2_latency), l1, tor])


def link_time(link, nbytes):
    metres, rate = link
    return metres / FIBER_METERS_PER_SECOND + nbytes * 8 / rate


def one_way(config, shell, src, dst, nbytes):
    links, switches = path(config, src, dst)
    wire = sum(link_time(link, nbytes) for link in links)
    # Each LTL send crosses the MAC tx pipeline twice: once in the LTL
    # transport (FabricLtlTransport.send_frame) and once on the shell's
    # TOR-facing output (Shell._mac_to_tor).
    return (2 * shell.mac_tx_latency + wire
            + sum(latency for _tier, latency in switches)
            + shell.mac_rx_latency)


def expected_rtt(config, src, dst):
    shell, ltl = ShellConfig(), LtlConfig()
    return (one_way(config, shell, src, dst, wire_bytes(PAYLOAD_BYTES))
            + ltl.rx_latency
            + one_way(config, shell, dst, src, wire_bytes(0))
            + ltl.ack_rx_latency)


def hop_terms(config, src, dst, nbytes):
    """(stage, closed-form duration) of every hop a traced ``nbytes``
    role message taps, from the sending role to the receiving one."""
    shell, ltl = ShellConfig(), LtlConfig()
    flits = -(-nbytes // ER_FLIT_BYTES)
    er = [("er.ingress", ER_CYCLE), ("er.switch", (flits - 1) * ER_CYCLE)]
    links, switches = path(config, src, dst)
    wires = [("link.wire", link_time(link, wire_bytes(nbytes)))
             for link in links]
    fabric = wires[:1]
    for (tier, latency), wire in zip(switches, wires[1:]):
        fabric += [(f"switch.{tier}", latency), wire]
    return (er + [("ltl.tx", ltl.tx_latency),
                  # The double MAC tx charge of one_way (ROADMAP item 3).
                  ("shell.mac_tx", 2 * shell.mac_tx_latency)]
            + fabric
            + [("shell.mac_rx", shell.mac_rx_latency),
               ("ltl.rx", ltl.rx_latency)]
            + er)


def idle_cloud(hosts):
    cloud = ConfigurableCloud(
        topology=TopologyConfig(background=idle()), seed=SEED)
    for host in hosts:
        cloud.add_server(host, enroll=False)
    return cloud


@pytest.fixture(scope="module")
def cloud():
    return idle_cloud({h for pair in PAIRS for h in pair})


@pytest.mark.parametrize("src,dst", PAIRS)
def test_idle_rtt_equals_per_hop_sum(cloud, src, dst):
    samples = cloud.measure_ltl_rtt(src, dst, messages=20,
                                    payload_bytes=PAYLOAD_BYTES)
    assert len(samples) == 20
    expected = expected_rtt(cloud.fabric.config, src, dst)
    assert max(abs(s - expected) for s in samples) <= 1e-12


@pytest.mark.parametrize("src,dst", PAIRS)
def test_every_traced_hop_equals_its_term(src, dst):
    cloud = idle_cloud((src, dst))
    cloud.connect(src, dst)
    env, sender = cloud.env, cloud.shell(src)
    recorder = TraceRecorder(sample_rate=1.0)
    # The span closes where the receiving role gets the message, at the
    # receiving ER's er.switch tap, so the closed form leaves nothing
    # untapped.
    cloud.shell(dst).role_receive = \
        lambda ctx, _length: recorder.complete(ctx, env.now)

    def send(request):
        ctx = recorder.start(env.now, request_id=request)
        sender.remote_send(dst, ctx, TRACED_BYTES, trace=ctx)

    for request in range(TRACED_REQUESTS):
        env.call_later(request * TRACED_GAP, send, request)
    env.run(until=TRACED_REQUESTS * TRACED_GAP + 1e-3)

    report = recorder.report()
    assert len(report.sampled_spans) == report.spans == TRACED_REQUESTS
    terms = hop_terms(cloud.fabric.config, src, dst, TRACED_BYTES)
    for span in report.sampled_spans:
        hops = span.durations()
        where = f"pair {src}->{dst}, request {span.request_id}"
        assert [stage for stage, _ in hops] == \
            [stage for stage, _ in terms], where
        moved = [f"hop {index} {stage}: {got!r} s, closed form {want!r} s"
                 for index, ((stage, got), (_, want))
                 in enumerate(zip(hops, terms))
                 if abs(got - want) > 1e-12]
        assert not moved, f"{where}: " + "; ".join(moved)
        assert span.end - span.marks[-1][1] == 0.0, where
