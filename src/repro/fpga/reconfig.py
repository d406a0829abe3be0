"""FPGA configuration: the golden image, partial reconfig, power cycle.

Paper §II: a 256 Mb flash holds "the known-good golden image for the FPGA
that is loaded on power on".  When traffic cannot pause, "partial
reconfiguration permits packets to be passed through even during
reconfiguration of the role."  A wedged FPGA is recovered by
power-cycling the server through the side-channel management port, which
reloads the golden image with the network link briefly down.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from ..sim import Environment

#: Partial reconfiguration of a role region.
PARTIAL_RECONFIG_SECONDS = 0.25
#: Power cycle via the management side-channel (server reboot not modeled;
#: this is FPGA-image recovery time only).
POWER_CYCLE_SECONDS = 10.0


@dataclass(frozen=True)
class Image:
    """A bitstream: a named image with a role identifier."""

    name: str
    role_name: str
    #: Golden images carry no application role, only bridge/bypass.
    is_golden: bool = False


GOLDEN_IMAGE = Image(name="golden", role_name="bypass", is_golden=True)


class ConfigurationError(Exception):
    """Raised on invalid configuration transitions."""


class ConfigurationManager:
    """Per-FPGA configuration state machine.

    Tracks which image is live and whether the network datapath is up.
    Callbacks let the shell react to link-down/link-up (the bridge drops
    packets while the link is down during a power cycle).
    """

    def __init__(self, env: Environment):
        self.env = env
        self.flash_golden: Image = GOLDEN_IMAGE
        self.live_image: Image = GOLDEN_IMAGE
        self.reconfiguring = False
        self.link_up = True
        self.partial_reconfigs = 0
        self.power_cycles = 0
        self.on_link_change: Optional[Callable[[bool], None]] = None

    def _set_link(self, up: bool) -> None:
        if self.link_up != up:
            self.link_up = up
            if self.on_link_change is not None:
                self.on_link_change(up)

    def partial_reconfigure(self, image: Image):
        """Process: swap only the role region; the bridge keeps passing
        packets (link stays up)."""
        if self.reconfiguring:
            raise ConfigurationError("reconfiguration already in progress")
        if image.is_golden:
            raise ConfigurationError(
                "partial reconfiguration targets the role region only")
        self.reconfiguring = True
        yield self.env.timeout(PARTIAL_RECONFIG_SECONDS)
        self.live_image = image
        self.reconfiguring = False
        self.partial_reconfigs += 1

    def power_cycle(self):
        """Process: management-port power cycle -> golden image loads.

        This is the §II recovery path: "power cycling the server through
        the management port will bring the FPGA back into a good
        configuration, making the server reachable via the network once
        again."
        """
        self.reconfiguring = True
        self._set_link(False)
        yield self.env.timeout(POWER_CYCLE_SECONDS)
        self.live_image = self.flash_golden
        self.reconfiguring = False
        self.power_cycles += 1
        self._set_link(True)
