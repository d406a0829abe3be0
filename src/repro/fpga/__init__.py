"""FPGA board and shell models (paper §II, Figs. 2-5).

The shell (:class:`~repro.fpga.shell.Shell`) is the per-server composition
of bridge, MACs, Elastic Router, LTL engine, configuration manager and
SEU scrubber; the other modules model the board
itself, its area/power budgets, and its failure modes.
"""

from .area import PRODUCTION_IMAGE, TOTAL_ALMS, AreaBudget, AreaEntry
from .board import Board, BoardHealth, BoardSpec
from .bridge import BRIDGE_LATENCY_SECONDS, Bridge, BridgeStats
from .power import (
    POWER_VIRUS_UTILIZATION,
    RANKING_ROLE_UTILIZATION,
    PowerModel,
    ThermalConditions,
    power_virus_power_w,
    validate_envelope,
)
from .reconfig import (
    GOLDEN_IMAGE,
    PARTIAL_RECONFIG_SECONDS,
    ConfigurationError,
    ConfigurationManager,
    Image,
)
from .seu import (
    MEAN_SECONDS_BETWEEN_FLIPS,
    SCRUB_PERIOD_SECONDS,
    SeuEvent,
    SeuScrubber,
    SeuStats,
)
from .shell import (
    ER_PORT_DMA,
    ER_PORT_DRAM,
    ER_PORT_REMOTE,
    ER_PORT_ROLE,
    FabricLtlTransport,
    RemoteEnvelope,
    RemoteMessage,
    Shell,
    ShellConfig,
)

__all__ = [
    "AreaBudget",
    "AreaEntry",
    "BRIDGE_LATENCY_SECONDS",
    "Board",
    "BoardHealth",
    "BoardSpec",
    "Bridge",
    "BridgeStats",
    "ConfigurationError",
    "ConfigurationManager",
    "ER_PORT_DMA",
    "ER_PORT_DRAM",
    "ER_PORT_REMOTE",
    "ER_PORT_ROLE",
    "FabricLtlTransport",
    "GOLDEN_IMAGE",
    "Image",
    "MEAN_SECONDS_BETWEEN_FLIPS",
    "PARTIAL_RECONFIG_SECONDS",
    "POWER_VIRUS_UTILIZATION",
    "PRODUCTION_IMAGE",
    "PowerModel",
    "RANKING_ROLE_UTILIZATION",
    "RemoteEnvelope",
    "RemoteMessage",
    "SCRUB_PERIOD_SECONDS",
    "SeuEvent",
    "SeuScrubber",
    "SeuStats",
    "Shell",
    "ShellConfig",
    "ThermalConditions",
    "TOTAL_ALMS",
    "power_virus_power_w",
    "validate_envelope",
]
