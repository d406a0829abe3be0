"""Lightweight Transport Layer: reliable inter-FPGA messaging (paper §V-A).

LTL gives every FPGA in the datacenter a microsecond-scale, mostly
lossless, ordered channel to every other FPGA, riding the standard
Ethernet in a PFC-protected traffic class with DC-QCN congestion control.
"""

from .connection import (
    ConnectionError_,
    ConnectionTable,
    PendingMessage,
    ReceiveConnectionState,
    SendConnectionState,
    UnackedFrame,
)
from .engine import LtlConfig, LtlEngine, LtlStats, connect_pair
from .frames import (
    LTL_HEADER_BYTES,
    LTL_UDP_PORT,
    TYPE_ACK,
    TYPE_DATA,
    TYPE_NACK,
    LtlFrame,
    make_ack,
    make_data_frame,
    make_nack,
    nack_range,
)
from .transports import DirectTransport, FaultModel

__all__ = [
    "ConnectionError_",
    "ConnectionTable",
    "DirectTransport",
    "FaultModel",
    "LTL_HEADER_BYTES",
    "LTL_UDP_PORT",
    "LtlConfig",
    "LtlEngine",
    "LtlFrame",
    "LtlStats",
    "PendingMessage",
    "ReceiveConnectionState",
    "SendConnectionState",
    "TYPE_ACK",
    "TYPE_DATA",
    "TYPE_NACK",
    "UnackedFrame",
    "connect_pair",
    "make_ack",
    "make_data_frame",
    "make_nack",
    "nack_range",
]
