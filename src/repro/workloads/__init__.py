"""Workload generators: the five-day load trace and the load balancer's
cap on it."""

from .diurnal import (
    DiurnalTraceConfig,
    LoadSample,
    apply_load_balancer_cap,
    five_day_trace,
)

__all__ = [
    "DiurnalTraceConfig",
    "LoadSample",
    "apply_load_balancer_cap",
    "five_day_trace",
]
