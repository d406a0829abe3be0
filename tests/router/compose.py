"""Composing multiple Elastic Routers into on-chip networks.

Per the paper, "multiple ERs can be composed to form a larger on-chip
network topology, e.g., a ring or a 2-D mesh."  Each router keeps port 0
as its local endpoint; link ports forward to neighbor routers through a
re-injecting bridge that implements the topology's routing function
(shortest-way for the ring, dimension-order X-then-Y for the mesh).
No experiment composes routers; the ring and mesh tests and the router
differential do.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, List, Optional, Tuple

from repro.router import ElasticRouter, Message
from repro.sim import Environment

#: Port index reserved for the local endpoint on every composed router.
LOCAL_PORT = 0


@dataclass
class Envelope:
    """Wraps a payload with its final destination router."""

    dst_router: int
    payload: Any


class ComposedNetwork:
    """Base class: a set of ERs joined by forwarding bridges."""

    def __init__(self, env: Environment, num_routers: int, ports_per_router:
                 int, name: str = "noc", **router_kwargs):
        self.env = env
        self.name = name
        self.routers: List[ElasticRouter] = [
            ElasticRouter(env, name=f"{name}-r{i}",
                          num_ports=ports_per_router, **router_kwargs)
            for i in range(num_routers)]
        self._local_handlers: List[
            Optional[Callable[[int, Any], None]]] = [None] * num_routers
        for i, router in enumerate(self.routers):
            router.set_endpoint(
                LOCAL_PORT, lambda msg, idx=i: self._deliver_local(idx, msg))

    # -- topology hooks --------------------------------------------------
    def next_hop_port(self, router_index: int, dst_router: int) -> int:
        """Output port of ``router_index`` on the route toward ``dst``."""
        raise NotImplementedError

    def _wire(self, a: int, a_port: int, b: int, b_port: int) -> None:
        """Connect router ``a`` port ``a_port`` -> router ``b`` (and back).

        Delivery at a link output port re-injects into the neighbor at the
        peer port, so flits buffer where they physically arrive.
        """
        self.routers[a].set_endpoint(
            a_port, lambda msg, nbr=b, arrival=b_port:
            self._forward(nbr, arrival, msg))
        self.routers[b].set_endpoint(
            b_port, lambda msg, nbr=a, arrival=a_port:
            self._forward(nbr, arrival, msg))

    # -- datapath ---------------------------------------------------------
    def set_local_handler(self, router_index: int,
                          handler: Callable[[int, Any], None]) -> None:
        """``handler(router_index, payload)`` is called on final delivery."""
        self._local_handlers[router_index] = handler

    def send(self, src_router: int, dst_router: int, payload: Any,
             length_bytes: int, vc: int = 0,
             on_sent: Optional[Callable[[], None]] = None) -> Message:
        """Inject a message at ``src_router``'s local port; ``on_sent``
        as in :meth:`ElasticRouter.send`."""
        envelope = Envelope(dst_router=dst_router, payload=payload)
        if src_router == dst_router:
            out_port = LOCAL_PORT
        else:
            out_port = self.next_hop_port(src_router, dst_router)
        return self.routers[src_router].send(
            LOCAL_PORT, out_port, envelope, length_bytes, vc=vc,
            on_sent=on_sent)

    def _forward(self, router_index: int, arrival_port: int,
                 message: Message) -> None:
        envelope: Envelope = message.payload
        if envelope.dst_router == router_index:
            out_port = LOCAL_PORT
        else:
            out_port = self.next_hop_port(router_index, envelope.dst_router)
        # Re-inject at the neighbor's arrival port; the bridge reuses the
        # neighbor's own credit machinery for link-level flow control.
        self.routers[router_index].send(
            arrival_port, out_port, envelope, message.length_bytes,
            vc=message.vc)

    def _deliver_local(self, router_index: int, message: Message) -> None:
        envelope: Envelope = message.payload
        handler = self._local_handlers[router_index]
        if handler is not None:
            handler(router_index, envelope.payload)


class RingNetwork(ComposedNetwork):
    """ERs in a bidirectional ring; routing takes the shorter way round.

    Port map: 0 local, 1 clockwise (toward index+1), 2 counter-clockwise.
    """

    CW, CCW = 1, 2

    def __init__(self, env: Environment, num_routers: int,
                 name: str = "ring", **router_kwargs):
        if num_routers < 2:
            raise ValueError("a ring needs at least 2 routers")
        super().__init__(env, num_routers, ports_per_router=3, name=name,
                         **router_kwargs)
        self.num_routers = num_routers
        for i in range(num_routers):
            j = (i + 1) % num_routers
            # i's CW port faces j; j's CCW port faces i.
            self._wire(i, self.CW, j, self.CCW)

    def next_hop_port(self, router_index: int, dst_router: int) -> int:
        forward = (dst_router - router_index) % self.num_routers
        backward = (router_index - dst_router) % self.num_routers
        return self.CW if forward <= backward else self.CCW


class MeshNetwork(ComposedNetwork):
    """ERs in a 2-D mesh with dimension-order (X then Y) routing.

    Port map: 0 local, 1 east, 2 west, 3 north, 4 south.
    """

    EAST, WEST, NORTH, SOUTH = 1, 2, 3, 4

    def __init__(self, env: Environment, width: int, height: int,
                 name: str = "mesh", **router_kwargs):
        if width < 1 or height < 1:
            raise ValueError("mesh dimensions must be positive")
        super().__init__(env, width * height, ports_per_router=5, name=name,
                         **router_kwargs)
        self.width = width
        self.height = height
        for y in range(height):
            for x in range(width):
                idx = self.index(x, y)
                if x + 1 < width:
                    self._wire(idx, self.EAST, self.index(x + 1, y),
                               self.WEST)
                if y + 1 < height:
                    self._wire(idx, self.NORTH, self.index(x, y + 1),
                               self.SOUTH)

    def index(self, x: int, y: int) -> int:
        return y * self.width + x

    def coords(self, index: int) -> Tuple[int, int]:
        return index % self.width, index // self.width

    def next_hop_port(self, router_index: int, dst_router: int) -> int:
        x, y = self.coords(router_index)
        dx, dy = self.coords(dst_router)
        if dx > x:
            return self.EAST
        if dx < x:
            return self.WEST
        if dy > y:
            return self.NORTH
        return self.SOUTH
