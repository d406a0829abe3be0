"""Core facade: the Configurable Cloud itself."""

from .cloud import ConfigurableCloud
from .metrics import LatencyRecorder
from .server import Server
from .service import HardwareService

__all__ = [
    "ConfigurableCloud",
    "HardwareService",
    "LatencyRecorder",
    "Server",
]
