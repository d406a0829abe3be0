"""A4 — ablation: DC-QCN congestion control on vs off (§V-A).

"Since the FPGAs are so tightly coupled to the network, they can react
quickly and efficiently to congestion notification and back off when
needed to reduce packets dropped from incast patterns. ... LTL also
implements the DC-QCN end-to-end congestion control scheme."

A sustained six-way incast on a *droppable* traffic class with a small
switch queue and ECN marking.  With DC-QCN, marks turn into CNPs,
senders cut their rates at the source, and the queue rarely overflows;
without it, the queue tail-drops and LTL pays retransmissions — trading
a longer (paced) completion for far fewer drops, the paper's "back off
when needed".
"""

from ..fpga.shell import ShellConfig
from ..ltl import LtlConfig
from ..net import EcnConfig, TopologyConfig, TrafficClass, idle
from ..net.dcqcn import DcqcnConfig
from .ablation_lossless import SENDERS, incast
from .harness import Table, claim, fmt

TITLE = "DC-QCN congestion control on vs off (§V-A)"

MESSAGES = 400


def run_incast(congestion_control: bool):
    topology = TopologyConfig(
        background=idle(),
        ecn=EcnConfig(kmin_bytes=3 * 1024, kmax_bytes=16 * 1024,
                      pmax=0.5))
    dcqcn = DcqcnConfig(cnp_min_interval=20e-6,
                        cnp_generation_interval=20e-6,
                        increase_period=150e-6)

    def shell_config():
        return ShellConfig(
            ltl=LtlConfig(congestion_control=congestion_control,
                          window_frames=8,
                          max_consecutive_timeouts=10 ** 6,
                          dcqcn=dcqcn),
            ltl_traffic_class=TrafficClass.BEST_EFFORT)

    senders, tor, delivered = incast(
        topology, 55, shell_config, queue_bytes=32 * 1024,
        messages=MESSAGES, until=2.0)
    return {
        "delivered": len(delivered),
        "expected": SENDERS * MESSAGES,
        "drops": sum(p.stats.dropped for p in tor.ports.values()),
        "ecn_marked": tor.stats.ecn_marked,
        "rate_cuts": sum(
            state.dcqcn.rate_cuts for s in senders
            for state in s.shell.ltl.send_table.values()),
        "retransmissions": sum(
            s.shell.ltl.stats.retransmissions for s in senders),
        "completion_ms": 1e3 * (max(delivered) - min(delivered)),
    }


def run():
    return run_incast(True), run_incast(False)


def rows(result):
    with_cc, without_cc = result
    return [Table(
        "A4 — sustained incast, droppable class: DC-QCN on vs off",
        ("metric", "DC-QCN on", "DC-QCN off"),
        [("delivered",
          f"{with_cc['delivered']}/{with_cc['expected']}",
          f"{without_cc['delivered']}/{without_cc['expected']}"),
         ("switch drops", with_cc["drops"], without_cc["drops"]),
         ("ECN marked", with_cc["ecn_marked"], without_cc["ecn_marked"]),
         ("sender rate cuts", with_cc["rate_cuts"],
          without_cc["rate_cuts"]),
         ("LTL retransmissions", with_cc["retransmissions"],
          without_cc["retransmissions"]),
         ("completion (ms)", fmt(with_cc["completion_ms"]),
          fmt(without_cc["completion_ms"]))])]


def check(result) -> None:
    with_cc, without_cc = result
    # Reliability holds either way.
    claim('with_cc["delivered"] == with_cc["expected"]',
          'without_cc["delivered"] == without_cc["expected"]')
    # DC-QCN reacts: rate cuts happen only when enabled...
    claim('with_cc["rate_cuts"] > 0',
          'without_cc["rate_cuts"] == 0')
    # ...and sharply reduce drops, marks, and retransmissions.
    claim('with_cc["drops"] < 0.5 * without_cc["drops"]',
          'with_cc["ecn_marked"] < 0.5 * without_cc["ecn_marked"]',
          'with_cc["retransmissions"] < '
          '0.6 * without_cc["retransmissions"]')
