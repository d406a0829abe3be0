"""Unit helpers.

All simulation code keeps time in **seconds** and sizes in **bytes**.  These
constants/converters keep call sites readable: ``3 * us`` instead of
``3e-6``.
"""

from __future__ import annotations

# ---------------------------------------------------------------------------
# Time
# ---------------------------------------------------------------------------
SECOND = 1.0
MS = 1e-3
US = 1e-6
NS = 1e-9

# ---------------------------------------------------------------------------
# Size
# ---------------------------------------------------------------------------
BYTE = 1
KB = 1024
MB = 1024 ** 2
GB = 1024 ** 3

# ---------------------------------------------------------------------------
# Rates (bits per second)
# ---------------------------------------------------------------------------
Kbps = 1e3
Mbps = 1e6
Gbps = 1e9


def serialization_delay(nbytes: int, rate_bps: float) -> float:
    """Time to clock ``nbytes`` onto a link of ``rate_bps`` bits/second."""
    if rate_bps <= 0:
        raise ValueError("link rate must be positive")
    return (nbytes * 8) / rate_bps
