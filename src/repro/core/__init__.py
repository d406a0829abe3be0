"""Core facade: the Configurable Cloud itself."""

from .. import _lazy_exports

__all__, __getattr__, __dir__ = _lazy_exports(globals(), {
    "cloud": ("ConfigurableCloud",),
    "metrics": ("LatencyRecorder",),
    "server": ("Server",),
    "service": ("HardwareService",),
})
