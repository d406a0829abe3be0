"""Lightweight Transport Layer: reliable inter-FPGA messaging (paper §V-A).

LTL gives every FPGA in the datacenter a microsecond-scale, mostly
lossless, ordered channel to every other FPGA, riding the standard
Ethernet in a PFC-protected traffic class with DC-QCN congestion control.
"""

from .. import _lazy_exports

__all__, __getattr__, __dir__ = _lazy_exports(globals(), {
    "connection": ("ConnectionError_", "ConnectionTable", "PendingMessage",
                   "ReceiveConnectionState", "SendConnectionState",
                   "UnackedFrame"),
    "engine": ("LtlConfig", "LtlEngine", "LtlStats", "connect_pair"),
    "frames": ("LTL_HEADER_BYTES", "LTL_UDP_PORT", "TYPE_ACK", "TYPE_DATA",
               "TYPE_NACK", "LtlFrame", "make_ack", "make_data_frame",
               "make_nack", "nack_range"),
    "transports": ("DirectTransport", "FaultModel"),
})
