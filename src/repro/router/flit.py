"""Flits and messages for the Elastic Router.

Messages entering the ER are packetized into flits (head / body / tail; a
single-flit message is head+tail).  The head flit carries routing state:
destination port and virtual channel.  Flit size is parameterizable, per
the paper ("fully parameterized in the number of ports, virtual channels,
flit and phit sizes, and buffer capacities").
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import count
from typing import Any, List

_message_ids = count()


@dataclass(slots=True)
class Message:
    """A variable-length payload crossing the ER between two ports."""

    src_port: int
    dst_port: int
    vc: int
    payload: Any
    length_bytes: int
    message_id: int = field(default_factory=lambda: next(_message_ids))
    injected_at: float = 0.0
    delivered_at: float = 0.0
    #: Optional :class:`repro.trace.TraceContext`; rides the head flit's
    #: message.  Not part of the flit format.
    trace: Any = None

    def __post_init__(self) -> None:
        if self.length_bytes <= 0:
            raise ValueError("message length must be positive")


@dataclass
class Flit:
    """One flow-control unit of a message."""

    message: Message
    index: int
    is_head: bool
    is_tail: bool

    @property
    def vc(self) -> int:
        return self.message.vc

    @property
    def dst_port(self) -> int:
        return self.message.dst_port

    def __repr__(self) -> str:
        kind = ("H" if self.is_head else "") + ("T" if self.is_tail else "")
        return (f"<Flit m{self.message.message_id}[{self.index}]{kind or 'B'} "
                f"vc={self.vc} ->p{self.dst_port}>")


def packetize(message: Message, flit_bytes: int) -> List[Flit]:
    """Split ``message`` into flits of at most ``flit_bytes`` each."""
    if flit_bytes <= 0:
        raise ValueError("flit size must be positive")
    num_flits = max(1, -(-message.length_bytes // flit_bytes))
    return [
        Flit(message=message, index=i, is_head=(i == 0),
             is_tail=(i == num_flits - 1))
        for i in range(num_flits)
    ]
