"""Workload generators: the five-day load trace and the load balancer's
cap on it."""

from .. import _lazy_exports

__all__, __getattr__, __dir__ = _lazy_exports(globals(), {
    "diurnal": ("DiurnalTraceConfig", "LoadSample", "apply_load_balancer_cap",
                "five_day_trace"),
})
