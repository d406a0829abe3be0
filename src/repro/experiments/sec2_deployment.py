"""E9 — §II-B: the 5,760-server deployment and reliability study.

The burn-in protocol over the full bed, then a month of mirrored
traffic, averaged over 25 seeded months, against the paper's report:
~2 FPGA hard failures, 1 cable failure, 5 PCIe Gen3 training failures,
8 DRAM calibration failures, one SEU bit-flip per 1025 machine-days.
"""

from ..deployment import (
    FLEET_SIZE,
    Fleet,
    MirroredTrafficStudy,
    RANKING_SERVERS,
    expected_report,
)
from .harness import Table, approx, claim, fmt

TITLE = "§II-B — deployment reliability (mean of 25 months)"


def run():
    fleet = Fleet(size=FLEET_SIZE, seed=20)
    fleet.run_burn_in()
    fleet.deploy_ranking()
    # Average the month-long study over several seeds so the report is
    # a stable estimate rather than one Poisson draw.
    reports = [MirroredTrafficStudy(seed=s).run() for s in range(25)]
    return fleet.summary(), reports


def _mean_of(reports):
    """``mean(attr)``: one report field's mean over ``reports``."""
    return lambda attr: sum(getattr(r, attr) for r in reports) / len(reports)


def rows(result):
    summary, reports = result
    mean = _mean_of(reports)
    table = [
        ("FPGA hard failures / month", "2", fmt(mean("fpga_hard_failures"))),
        ("cable failures / month", "1", fmt(mean("cable_failures"))),
        ("PCIe Gen3 training failures", "5",
         fmt(mean("pcie_training_failures"))),
        ("DRAM calibration failures", "8",
         fmt(mean("dram_calibration_failures"))),
        ("SEU flips / month", fmt(expected_report()["seu_flips"], 1),
         fmt(mean("seu_flips"), 1)),
        ("machine-days per SEU flip", "1025",
         fmt(reports[0].machine_days / max(1, mean("seu_flips")), 0)),
    ]
    return [
        Table("§II-B — deployment reliability (paper vs simulated, mean "
              f"of {len(reports)} runs)", ("metric", "paper", "simulated"),
              table),
        f"burn-in: {summary['approved']:.0f}/{FLEET_SIZE} approved, "
        f"max power-virus draw {summary['max_power_virus_w']:.1f} W, "
        f"{summary['ranking_servers']:.0f} machines to ranking "
        f"(paper: {RANKING_SERVERS})"]


def check(result) -> None:
    summary, reports = result
    expected = expected_report()
    mean = _mean_of(reports)
    # "The servers all passed."
    claim('summary["approved"] == FLEET_SIZE',
          'summary["ranking_servers"] == RANKING_SERVERS',
          'mean("fpga_hard_failures") == approx(2.0, abs=1.0)',
          'mean("cable_failures") == approx(1.0, abs=0.75)',
          'mean("pcie_training_failures") == approx(5.0, abs=2.0)',
          'mean("dram_calibration_failures") == approx(8.0, abs=2.5)',
          'mean("seu_flips") == approx(expected["seu_flips"], rel=0.1)')
    # Every hang was recovered by scrubbing.
    claim("all(r.seu_recoveries == r.seu_role_hangs for r in reports)")
