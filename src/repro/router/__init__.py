"""Elastic Router: the intra-FPGA multi-VC message crossbar (paper §V-B).

In an example single-role deployment the ER is instantiated with 4 ports —
PCIe DMA, Role, DRAM, and Remote (to LTL) — which is exactly how
:mod:`repro.fpga.shell` wires it.
"""

from .. import _lazy_exports

__all__, __getattr__, __dir__ = _lazy_exports(globals(), {
    "credits": ("CreditError", "CreditPool", "ElasticCreditPool",
                "StaticCreditPool", "make_credit_pool"),
    "elastic_router": ("DEFAULT_FREQ_HZ", "ElasticRouter", "RouterStats"),
    "flit": ("Flit", "Message", "packetize"),
})
