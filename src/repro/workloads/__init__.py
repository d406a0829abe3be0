"""Workload generators: the five-day load trace, and flash-crowd surge
profiles with their non-homogeneous Poisson arrivals."""

from .diurnal import (
    DiurnalTraceConfig,
    LoadSample,
    apply_load_balancer_cap,
    five_day_trace,
)
from .surge import FlashCrowdProfile, VariableRateArrivals

__all__ = [
    "DiurnalTraceConfig",
    "FlashCrowdProfile",
    "LoadSample",
    "VariableRateArrivals",
    "apply_load_balancer_cap",
    "five_day_trace",
]
