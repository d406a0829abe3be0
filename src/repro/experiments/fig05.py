"""E1 — Fig. 5: area and frequency breakdown of the production image.

The per-component ALM/percentage/clock table, checked against the
invariants the §II-A text states: shell 44%, LTL 7%, ER 2%, DDR 8%,
total 76%.
"""

from ..fpga.area import AreaBudget
from .harness import Table, claim

TITLE = "Fig. 5 — shell area/frequency breakdown"


def run() -> AreaBudget:
    return AreaBudget()


def rows(budget: AreaBudget):
    table = []
    for row in budget.rows():
        freq = "" if row["freq_mhz"] is None else f"{row['freq_mhz']:.0f}"
        table.append((row["component"], f"{row['alms']:,}",
                      f"{row['percent']}%", freq))
    return [Table("Fig. 5 — Area and frequency breakdown",
                  ("component", "ALMs", "%", "MHz"), table)]


def check(budget: AreaBudget) -> None:
    claim("budget.used_alms == 131_350",
          "round(100 * budget.used_fraction) == 76",
          "round(100 * budget.shell_fraction) == 44",
          'round(100 * budget.fraction_of("LTL Protocol Engine")) == 7',
          'round(100 * budget.fraction_of("Elastic Router")) == 2',
          'round(100 * budget.fraction_of("DDR3 Memory Controller")) == 8')
