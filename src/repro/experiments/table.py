"""The experiment table: each id (DESIGN.md's E- and A-numbers,
``chaos``, ``control`` and ``scale``) maps to the module defining that
experiment's ``TITLE``, ``run()``, ``rows(result)`` and
``check(result)`` (see :mod:`.harness`).
``python -m repro`` and ``benchmarks/bench_paper.py`` both run an entry
as ``check(result)`` after printing ``render(rows(result))``.
"""

from . import (ablation_consolidation, ablation_credits, ablation_dcqcn,
               ablation_failures, ablation_lossless, chaos_soak,
               control_soak, fig05, fig06, fig07, fig08, fig10, fig11,
               fig12, scale, sec2_deployment, sec2_power, sec4, sec5_ltl)

TABLE = {
    "E1": fig05,
    "E2": fig06,
    "E3": fig07,
    "E4": fig08,
    "E5": sec4,
    "E6": fig10,
    "E7": fig11,
    "E8": fig12,
    "E9": sec2_deployment,
    "E10": sec2_power,
    "E11": sec5_ltl,
    "A1": ablation_credits,
    "A2": ablation_lossless,
    "A3": ablation_failures,
    "A4": ablation_dcqcn,
    "A5": ablation_consolidation,
    "chaos": chaos_soak,
    "control": control_soak,
    "scale": scale,
}
