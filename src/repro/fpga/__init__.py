"""FPGA board and shell models (paper §II, Figs. 2-5).

The shell (:class:`~repro.fpga.shell.Shell`) is the per-server composition
of bridge, MACs, Elastic Router, LTL engine, configuration manager and
SEU scrubber; the other modules model the board
itself, its area/power budgets, and its failure modes.
"""

from .. import _lazy_exports

__all__, __getattr__, __dir__ = _lazy_exports(globals(), {
    "area": ("PRODUCTION_IMAGE", "TOTAL_ALMS", "AreaBudget", "AreaEntry"),
    "board": ("Board", "BoardHealth", "BoardSpec"),
    "bridge": ("BRIDGE_LATENCY_SECONDS", "Bridge", "BridgeStats"),
    "power": ("POWER_VIRUS_UTILIZATION", "RANKING_ROLE_UTILIZATION",
              "PowerModel", "ThermalConditions", "power_virus_power_w",
              "validate_envelope"),
    "reconfig": ("GOLDEN_IMAGE", "PARTIAL_RECONFIG_SECONDS",
                 "ConfigurationError", "ConfigurationManager", "Image"),
    "seu": ("MEAN_SECONDS_BETWEEN_FLIPS", "SCRUB_PERIOD_SECONDS", "SeuEvent",
            "SeuScrubber", "SeuStats"),
    "shell": ("ER_PORT_DMA", "ER_PORT_DRAM", "ER_PORT_REMOTE", "ER_PORT_ROLE",
              "FabricLtlTransport", "RemoteEnvelope", "RemoteMessage",
              "Shell", "ShellConfig"),
})
