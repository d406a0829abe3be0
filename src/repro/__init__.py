"""repro — a simulation reproduction of *A Cloud-Scale Acceleration
Architecture* (Catapult v2, MICRO 2016).

The package is organized bottom-up:

* :mod:`repro.sim` — discrete-event kernel,
* :mod:`repro.net` — the shared datacenter Ethernet (TOR/L1/L2, PFC,
  DC-QCN),
* :mod:`repro.torus` — the Catapult v1 6x8 torus baseline,
* :mod:`repro.router` — the Elastic Router (intra-FPGA crossbar),
* :mod:`repro.ltl` — the Lightweight Transport Layer,
* :mod:`repro.fpga` — board, shell, bridge, reconfig, SEU, power,
* :mod:`repro.crypto` — real AES/CBC/GCM/SHA-1 + §IV timing models,
* :mod:`repro.ranking` — Bing ranking acceleration (Figs. 6-8, 11),
* :mod:`repro.dnn` — pooled DNN accelerators (Fig. 12),
* :mod:`repro.haas` — Hardware-as-a-Service control plane,
* :mod:`repro.faults` — deterministic fault-injection campaigns,
* :mod:`repro.trace` — per-hop latency attribution,
* :mod:`repro.deployment` — the 5,760-server reliability study,
* :mod:`repro.core` — the :class:`~repro.core.cloud.ConfigurableCloud`
  facade tying everything together.

See DESIGN.md for the system inventory and EXPERIMENTS.md for
paper-vs-measured results of every figure and table.
"""

from .core.cloud import ConfigurableCloud
from .core.metrics import LatencyRecorder
from .core.server import Server
from .faults import (CampaignConfig, FaultEvent, FaultInjector, FaultKind,
                     generate_campaign)
from .fpga.shell import Shell, ShellConfig
from .ltl.engine import LtlConfig, LtlEngine, connect_pair
from .net.fabric import DatacenterFabric
from .net.topology import TopologyConfig
from .router.elastic_router import ElasticRouter
from .sim.kernel import Environment
from .trace import Stage, TraceContext, TraceRecorder, TraceReport

__version__ = "1.0.0"

__all__ = [
    "CampaignConfig",
    "ConfigurableCloud",
    "DatacenterFabric",
    "ElasticRouter",
    "Environment",
    "FaultEvent",
    "FaultInjector",
    "FaultKind",
    "LatencyRecorder",
    "LtlConfig",
    "LtlEngine",
    "Server",
    "Shell",
    "ShellConfig",
    "Stage",
    "TopologyConfig",
    "TraceContext",
    "TraceRecorder",
    "TraceReport",
    "connect_pair",
    "generate_campaign",
    "__version__",
]
