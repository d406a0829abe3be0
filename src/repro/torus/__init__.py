"""Catapult v1 6x8 torus baseline (paper §V-C / Fig. 10)."""

from .. import _lazy_exports

__all__, __getattr__, __dir__ = _lazy_exports(globals(), {
    "network": ("HOP_JITTER_SECONDS", "HOP_LATENCY_SECONDS",
                "TorusLatencyModel"),
    "topology": ("Coordinate", "TorusTopology"),
})
