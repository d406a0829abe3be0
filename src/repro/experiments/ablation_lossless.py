"""A2 — ablation: lossless traffic class + PFC vs best-effort (§V-A).

"By using 'lossless' traffic classes provided in datacenter switches and
provisioned for traffic like RDMA and FCoE, we avoid most packet drops
and reorders."

An incast: many senders converge on one receiver's TOR downlink with
tiny switch queues.  On the lossless class, PFC pushes back and nothing
is lost; on best-effort, the queue tail-drops and LTL must recover by
retransmission (costing 50 us timeouts).
"""

from ..core.cloud import ConfigurableCloud
from ..fpga.shell import ShellConfig
from ..net import PfcConfig, TopologyConfig, TrafficClass, idle
from .harness import Table, claim

TITLE = "lossless class + PFC vs best-effort (§V-A)"

SENDERS = 6
MESSAGES = 40
MESSAGE_BYTES = 1400


def incast(topology, seed, shell_config, queue_bytes, messages, until):
    """Six senders each dump ``messages`` LTL messages on host 0 at
    once, through a TOR downlink queue of ``queue_bytes``.  Returns the
    senders, host 0's TOR and the time of each delivery."""
    cloud = ConfigurableCloud(topology=topology, seed=seed)
    receiver = cloud.add_server(0, enroll=False,
                                shell_config=shell_config())
    senders = [cloud.add_server(1 + i, enroll=False,
                                shell_config=shell_config())
               for i in range(SENDERS)]
    # Shrink the victim downlink queue so incast actually pressures it.
    coords = cloud.fabric.topology.coords(0)
    tor = cloud.fabric.topology.tor(coords.pod, coords.tor)
    tor.ports[0].queue_capacity_bytes = queue_bytes

    delivered = []
    receiver.shell.role_receive = lambda p, n: delivered.append(
        cloud.env.now)
    for sender in senders:
        sender.shell.connect_to(receiver.shell)

    def burst(env):
        # True incast: every sender dumps its whole burst at once; each
        # sender's LTL pump then drives its 40G uplink flat out, and six
        # uplinks converge on the receiver's single 40G downlink.
        for sender in senders:
            for _ in range(messages):
                sender.shell.remote_send(
                    0, b"\x00" * MESSAGE_BYTES, MESSAGE_BYTES)
        yield env.timeout(0)

    cloud.env.process(burst(cloud.env))
    cloud.run(until=until)
    return senders, tor, delivered


def run_incast(traffic_class: int):
    topology = TopologyConfig(background=idle(),
                              pfc=PfcConfig(xoff_bytes=8 * 1024,
                                            xon_bytes=4 * 1024))
    senders, tor, delivered = incast(
        topology, 33, lambda: ShellConfig(ltl_traffic_class=traffic_class),
        queue_bytes=12 * 1024, messages=MESSAGES, until=0.2)
    return {
        "delivered": len(delivered),
        "expected": SENDERS * MESSAGES,
        "retransmissions": sum(
            s.shell.ltl.stats.retransmissions for s in senders),
        "timeouts": sum(s.shell.ltl.stats.timeouts for s in senders),
        "pfc_pauses": tor.stats.pfc_pause_sent,
        "switch_drops": sum(port.stats.dropped
                            for port in tor.ports.values()),
    }


def run():
    return (run_incast(TrafficClass.LOSSLESS),
            run_incast(TrafficClass.BEST_EFFORT))


def rows(result):
    lossless, best_effort = result
    return [Table(
        "A2 — incast: lossless class + PFC vs best-effort",
        ("metric", "lossless", "best-effort"),
        [("delivered", f"{lossless['delivered']}/{lossless['expected']}",
          f"{best_effort['delivered']}/{best_effort['expected']}"),
         ("switch drops", lossless["switch_drops"],
          best_effort["switch_drops"]),
         ("LTL retransmissions", lossless["retransmissions"],
          best_effort["retransmissions"]),
         ("LTL timeouts", lossless["timeouts"], best_effort["timeouts"]),
         ("PFC pauses", lossless["pfc_pauses"],
          best_effort["pfc_pauses"])])]


def check(result) -> None:
    lossless, best_effort = result
    # Both configurations eventually deliver everything (LTL is
    # reliable either way) ...
    claim('lossless["delivered"] == lossless["expected"]',
          'best_effort["delivered"] == best_effort["expected"]')
    # ... but the lossless class avoids drops entirely via PFC, while
    # best-effort drops in the switch and pays retransmissions.
    claim('lossless["switch_drops"] == 0',
          'lossless["pfc_pauses"] > 0',
          'best_effort["switch_drops"] > 0',
          'best_effort["retransmissions"] > lossless["retransmissions"]')
