"""E3 — Fig. 7: five-day production throughput and latency.

Two identical datacenters over a diurnal five-day trace, one software
and one FPGA-accelerated.  The software DC "experiences a high rate of
latency spikes" as load varies, while "the FPGA-accelerated queries have
much lower, tighter-bound latencies, despite seeing much higher peak
query loads."
"""

import functools

from ..ranking.production import FiveDayResult, run_five_day_study
from ..workloads import DiurnalTraceConfig
from .harness import Table, claim, fmt

TITLE = "Fig. 7 — five-day production trace"

#: A window is a latency spike above this multiple of the target.
SPIKE_THRESHOLD = 1.25


@functools.lru_cache(maxsize=None)
def run() -> FiveDayResult:
    """The study, run once per process: Fig. 8 (E4) bins its windows."""
    return run_five_day_study(
        DiurnalTraceConfig(days=5, windows_per_day=16),
        queries_per_window=220, seed=1)


def _spikes(p999s) -> int:
    return sum(1 for v in p999s if v > SPIKE_THRESHOLD)


def _series(result: FiveDayResult):
    """Per-window normalized p99.9 and load: software, then FPGA."""
    target = result.latency_target
    return ([w.p999_latency / target for w in result.software],
            [w.p999_latency / target for w in result.fpga],
            [w.admitted_load for w in result.software],
            [w.offered_load for w in result.fpga])


def rows(result: FiveDayResult):
    target = result.latency_target
    days = []
    # A daily digest: the full series is 80 windows.
    for day in range(5):
        sw_day = [w for w in result.software if int(w.time_days) == day]
        fp_day = [w for w in result.fpga if int(w.time_days) == day]
        days.append((
            f"day {day + 1}",
            fmt(max(w.admitted_load for w in sw_day)),
            fmt(max(w.p999_latency / target for w in sw_day)),
            fmt(max(w.offered_load for w in fp_day)),
            fmt(max(w.p999_latency / target for w in fp_day))))
    sw_p999, fp_p999, sw_load, fp_load = _series(result)
    return [
        Table("Fig. 7 — five-day trace (per-day peaks, latency "
              "normalized)",
              ("", "sw load", "sw p99.9", "fpga load", "fpga p99.9"), days),
        f"latency spikes (>1.25x target): software {_spikes(sw_p999)}, "
        f"FPGA {_spikes(fp_p999)}\n"
        f"peak load: software {max(sw_load):.2f}, FPGA {max(fp_load):.2f} "
        f"({max(fp_load) / max(sw_load):.2f}x higher)"]


def check(result: FiveDayResult) -> None:
    sw_p999, fp_p999, sw_load, fp_load = _series(result)
    sw_spikes, fp_spikes = _spikes(sw_p999), _spikes(fp_p999)
    # FPGA sees ~2x the load yet stays tight; software spikes.  (p99.9
    # over ~220 queries/window is max-like, so allow the FPGA a couple
    # of sampling-noise excursions out of 80 windows.)  The trace and
    # the balancer cap fix the load ratio, so its claim cannot fail.
    claim("max(fp_load) > 1.8 * max(sw_load)",
          "sw_spikes > 5",
          "fp_spikes <= 2",
          "fp_spikes < sw_spikes / 3",
          "max(fp_p999) < max(sw_p999)")
