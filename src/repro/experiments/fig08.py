"""E4 — Fig. 8: query 99.9% latency vs offered load, from the 5-day data.

Fig. 7's windows (E3's study) binned by load: the software DC's
latencies climb with load (and its balancer caps the load it will
admit), while the FPGA DC "is able to absorb more than twice the offered
load, while executing queries at a latency that never exceeds the
software datacenter at any load."
"""

from collections import defaultdict

from ..ranking.production import FiveDayResult
from . import fig07
from .harness import Table, claim, fmt

TITLE = "Fig. 8 — latency vs offered load (Fig. 7's windows, binned)"

run = fig07.run


def bin_by_load(windows, target, bin_width=0.25):
    bins = defaultdict(list)
    for w in windows:
        bins[round(w.admitted_load / bin_width) * bin_width].append(
            w.p999_latency / target)
    return {load: sum(v) / len(v) for load, v in sorted(bins.items())}


def rows(result: FiveDayResult):
    sw_bins = bin_by_load(result.software, result.latency_target)
    fp_bins = bin_by_load(result.fpga, result.latency_target)
    table = [(fmt(load),
              fmt(sw_bins[load]) if load in sw_bins else "-",
              fmt(fp_bins[load]) if load in fp_bins else "-")
             for load in sorted(set(sw_bins) | set(fp_bins))]
    return [Table("Fig. 8 — p99.9 latency vs offered load (normalized)",
                  ("load", "software", "fpga"), table),
            f"max observed load: software "
            f"{max(w.admitted_load for w in result.software):.2f} "
            f"(balancer-capped), FPGA "
            f"{max(w.offered_load for w in result.fpga):.2f}"]


def check(result: FiveDayResult) -> None:
    sw_bins = bin_by_load(result.software, result.latency_target)
    fp_bins = bin_by_load(result.fpga, result.latency_target)
    max_sw_load = max(w.admitted_load for w in result.software)
    max_fp_load = max(w.offered_load for w in result.fpga)
    # 1. FPGA absorbs more than twice the software load (fixed by the
    #    trace and the balancer cap, like E3's load claim).
    claim("max_fp_load > 2.0 * max_sw_load")
    # 2. FPGA latency never exceeds software latency at any shared load.
    for load in set(sw_bins) & set(fp_bins):
        claim("fp_bins[load] <= sw_bins[load]")
    # 3. Software latency grows with load (the spike behaviour).
    sw_loads = sorted(sw_bins)
    claim("sw_bins[sw_loads[-1]] > sw_bins[sw_loads[0]]")
