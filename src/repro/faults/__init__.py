"""Datacenter fault injection (paper §II-B failure taxonomy).

Deterministic, seedable chaos campaigns against a live
:class:`~repro.core.cloud.ConfigurableCloud`, plus the observation
machinery that stamps when each injected fault was detected and
recovered by the system's own defenses (LTL checksums/retransmission,
FPGA Manager health monitoring, RM quarantine + lease expiry, SM
replacement retry).
"""

from .. import _lazy_exports

__all__, __getattr__, __dir__ = _lazy_exports(globals(), {
    "campaign": ("CONTROL_PLANE_KINDS", "CampaignConfig", "FaultEvent",
                 "FaultKind", "SECONDS_PER_DAY", "TRANSIENT_KINDS",
                 "generate_campaign"),
    "injector": ("FaultInjector", "InjectionRecord", "InjectorStats"),
})
