"""Canonical datapath stage vocabulary.

Every trace tap site names its hop with a member of this one enum, so
the names cannot drift between the sites that tap the same hop.

The values are dotted lower-case strings grouped by subsystem prefix
(``core.``, ``er.``, ``shell.``, ``link.``, ``switch.``, ``ltl.``,
``role.``, ``pool.``).  Anything that accepts a stage accepts either the
enum member or its string value; normalize with :func:`stage_name`.
"""

from __future__ import annotations

import enum


class Stage(str, enum.Enum):
    """A named segment of the acceleration-plane datapath.

    ``str``-mixin so members compare and hash equal to their dotted
    string values — existing code that keyed dictionaries on ad-hoc
    strings keeps working, and JSON serialization is transparent.
    """

    # Host software / ranking pipeline.
    CORE_QUEUE = "core.queue"
    CORE_SOFTWARE = "core.software"
    SW_PRE = "sw.pre"
    SW_POST = "sw.post"

    # FPGA-side queues and role compute.
    FPGA_QUEUE = "fpga.queue"
    ROLE_SERVICE = "role.service"
    POST_QUEUE = "post.queue"

    # Elastic Router crossbar.
    ER_INGRESS = "er.ingress"
    ER_SWITCH = "er.switch"

    # Shell bump-in-the-wire MAC datapath.
    SHELL_MAC_TX = "shell.mac_tx"
    SHELL_MAC_RX = "shell.mac_rx"

    # Physical links and switch tiers.
    LINK_WIRE = "link.wire"
    SWITCH_TOR = "switch.tor"
    SWITCH_L1 = "switch.l1"
    SWITCH_L2 = "switch.l2"

    # Lightweight Transport Layer engine.
    LTL_TX = "ltl.tx"
    LTL_RX = "ltl.rx"
    LTL_RETX = "ltl.retx"

    # DNN pool remote accelerator path.
    POOL_QUEUE = "pool.queue"
    POOL_NET = "pool.net"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


#: Map from ``repro.net.topology`` tier names to the switch-traversal stage.
SWITCH_STAGE_BY_TIER = {
    "tor": Stage.SWITCH_TOR,
    "l1": Stage.SWITCH_L1,
    "l2": Stage.SWITCH_L2,
}


def stage_name(stage) -> str:
    """Normalize a :class:`Stage` member or plain string to its dotted name."""
    value = getattr(stage, "value", stage)
    return str(value)
