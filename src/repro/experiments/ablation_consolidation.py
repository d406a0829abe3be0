"""A5 — ablation: FPGA consolidation (multiple servers per FPGA, §III-A).

"Even at these higher loads, the FPGA remains underutilized, as the
software portion of ranking saturates the host server before the FPGA
is saturated.  Having multiple servers drive fewer FPGAs addresses the
underutilization of the FPGAs, which is the goal of our remote
acceleration model."

N ranking servers offload feature extraction to a shared pool of M
remote FFU FPGAs.  Utilization climbs with N/M while query latency stays
flat, until the pool itself saturates — so a large fraction of FPGAs can
be freed for other hardware services.
"""

from ..ranking import consolidation_sweep
from .harness import Table, claim, fmt

TITLE = "FPGA consolidation (§III-A)"

RATIOS = (1, 2, 3, 4)


def run():
    return consolidation_sweep(list(RATIOS), num_fpgas=2,
                               queries_per_server=350)


def rows(result):
    freed = 1 - 1 / result[1].servers_per_fpga
    return [Table("A5 — servers per FPGA: utilization vs query latency",
                  ("servers/FPGA", "FPGA util", "mean ms", "p99 ms"),
                  [(r.servers_per_fpga, fmt(r.fpga_utilization),
                    fmt(r.latency.mean * 1e3), fmt(r.latency.p99 * 1e3))
                   for r in result]),
            f"at 2 servers/FPGA, latency is still flat and "
            f"{100 * freed:.0f}% of FPGAs are freed for other services"]


def check(result) -> None:
    one, two, three, four = result
    # 1:1 leaves the FPGA mostly idle (the §III-A observation).
    claim("one.fpga_utilization < 0.6")
    # Consolidating 2:1 nearly doubles utilization at flat latency.
    claim("two.fpga_utilization > 1.5 * one.fpga_utilization",
          "two.latency.p99 < 2.5 * one.latency.p99")
    # The pool saturates somewhere past 2:1: latency blows up.
    claim("four.fpga_utilization > 0.9",
          "four.latency.p99 > 3 * two.latency.p99")
