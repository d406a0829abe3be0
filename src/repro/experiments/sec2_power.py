"""E10 — §II: the power virus and the board's power envelope.

"Under these conditions, the card consumes 29.2 W of power, which is
well within the 32 W TDP limits for a card running in a single server in
our datacenter, and below the max electrical power draw limit of 35 W."
"""

from ..fpga.power import (
    POWER_VIRUS_UTILIZATION,
    RANKING_ROLE_UTILIZATION,
    PowerModel,
    ThermalConditions,
    validate_envelope,
)
from .harness import Table, approx, claim, fmt

TITLE = "§II — power envelope"


def run():
    """Card watts per scenario, and the envelope check."""
    model = PowerModel()
    scenarios = {
        "idle (nominal)": ({}, ThermalConditions()),
        "ranking role (nominal)": (RANKING_ROLE_UTILIZATION,
                                   ThermalConditions()),
        "power virus (nominal)": (POWER_VIRUS_UTILIZATION,
                                  ThermalConditions()),
        "power virus (thermal chamber)": (POWER_VIRUS_UTILIZATION,
                                          ThermalConditions.worst_case()),
    }
    watts = {name: model.power_w(util, cond)
             for name, (util, cond) in scenarios.items()}
    return watts, validate_envelope()


def rows(result):
    watts, envelope = result
    return [Table("§II — card power (W)", ("scenario", "watts"),
                  [(name, fmt(w, 1)) for name, w in watts.items()]),
            f"power virus worst-case: {envelope['power_virus_w']:.1f} W "
            f"vs TDP {envelope['tdp_w']:.0f} W / electrical limit "
            f"{envelope['max_power_w']:.0f} W (paper: 29.2 W)"]


def check(result) -> None:
    watts, envelope = result
    claim('envelope["power_virus_w"] == approx(29.2, abs=0.15)',
          'envelope["within_tdp"]',
          'envelope["within_electrical_limit"]')
    # Ordering: idle < role < virus < worst-case virus.
    values = list(watts.values())
    claim("values == sorted(values)")
