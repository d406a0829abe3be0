"""Elastic Router: the intra-FPGA multi-VC message crossbar (paper §V-B).

In an example single-role deployment the ER is instantiated with 4 ports —
PCIe DMA, Role, DRAM, and Remote (to LTL) — which is exactly how
:mod:`repro.fpga.shell` wires it.
"""

from .credits import (
    CreditError,
    CreditPool,
    ElasticCreditPool,
    StaticCreditPool,
    make_credit_pool,
)
from .elastic_router import DEFAULT_FREQ_HZ, ElasticRouter, RouterStats
from .flit import Flit, Message, packetize

__all__ = [
    "CreditError",
    "CreditPool",
    "DEFAULT_FREQ_HZ",
    "ElasticCreditPool",
    "ElasticRouter",
    "Flit",
    "Message",
    "RouterStats",
    "StaticCreditPool",
    "make_credit_pool",
    "packetize",
]
