"""Shell area and frequency budget (paper Fig. 5).

The production-deployed image on the Altera Stratix V D5 (172,600 ALMs)
uses 76% of the device: 44% for shell functions (including LTL and the
Elastic Router, i.e. remote-acceleration support) and 32% for the role.
The table below reproduces Fig. 5's per-component ALM counts; the listed
frequencies come from the figure's clock column (the role runs at 175 MHz,
the 40G datapath at 313 MHz, PCIe DMA at 250 MHz).

Summary invariants stated in the text and checked by the test suite:

* 40G PHY/MACs together: 14% of the device,
* DDR3 memory controller: 8%,
* LTL: 7%, Elastic Router: 2%,
* shell total: 44%; total used: 131,350 ALMs (76%).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

#: Total ALMs available on the Stratix V D5.
TOTAL_ALMS = 172_600


@dataclass(frozen=True)
class AreaEntry:
    """One row of the Fig. 5 breakdown."""

    name: str
    alms: int
    freq_mhz: float
    is_shell: bool

    @property
    def fraction(self) -> float:
        return self.alms / TOTAL_ALMS


#: The production image breakdown, per Fig. 5.
PRODUCTION_IMAGE: List[AreaEntry] = [
    AreaEntry("Role", 55_340, 175.0, is_shell=False),
    AreaEntry("40G MAC/PHY (TOR)", 9_785, 313.0, is_shell=True),
    AreaEntry("40G MAC/PHY (NIC)", 13_122, 313.0, is_shell=True),
    AreaEntry("Network Bridge / Bypass", 4_685, 313.0, is_shell=True),
    AreaEntry("DDR3 Memory Controller", 13_225, 200.0, is_shell=True),
    AreaEntry("Elastic Router", 3_449, 175.0, is_shell=True),
    AreaEntry("LTL Protocol Engine", 11_839, 156.0, is_shell=True),
    AreaEntry("LTL Packet Switch", 4_815, 156.0, is_shell=True),
    AreaEntry("PCIe Gen3 DMA x 2", 6_817, 250.0, is_shell=True),
    AreaEntry("Other shell", 8_273, 156.0, is_shell=True),
]


class AreaBudget:
    """Area accounting for the production image: shell entries + role
    demand, as Fig. 5 reports them."""

    def __init__(self) -> None:
        self.total_alms = TOTAL_ALMS
        self.entries: List[AreaEntry] = list(PRODUCTION_IMAGE)

    # -- queries ---------------------------------------------------------
    def entry(self, name: str) -> AreaEntry:
        for item in self.entries:
            if item.name == name:
                return item
        raise KeyError(f"no area entry named {name!r}")

    @property
    def used_alms(self) -> int:
        return sum(e.alms for e in self.entries)

    @property
    def shell_alms(self) -> int:
        return sum(e.alms for e in self.entries if e.is_shell)

    @property
    def used_fraction(self) -> float:
        return self.used_alms / self.total_alms

    @property
    def shell_fraction(self) -> float:
        return self.shell_alms / self.total_alms

    def fraction_of(self, *names: str) -> float:
        return sum(self.entry(n).alms for n in names) / self.total_alms

    def rows(self) -> List[Dict[str, object]]:
        """Fig. 5-shaped rows for reporting."""
        out = []
        for e in self.entries:
            out.append({
                "component": e.name,
                "alms": e.alms,
                "percent": round(100 * e.fraction),
                "freq_mhz": e.freq_mhz,
                "shell": e.is_shell,
            })
        out.append({"component": "Total Area Used", "alms": self.used_alms,
                    "percent": round(100 * self.used_fraction),
                    "freq_mhz": None, "shell": None})
        out.append({"component": "Total Area Available",
                    "alms": self.total_alms, "percent": 100,
                    "freq_mhz": None, "shell": None})
        return out
