"""The Catapult v1 secondary network: a 6x8 torus of 48 FPGAs.

Baseline for Fig. 10 and the failure-handling ablation.  The torus
connects FPGAs with dedicated SAS cables inside one rack; communication
"is strictly limited to groups of 48 FPGAs", routing is dimension-order
(X then Y) with wraparound, and node failures force rerouting "at the
cost of extra network hops and latency" — or isolate nodes entirely
"under certain failure patterns".
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

Coordinate = Tuple[int, int]


@dataclass
class TorusTopology:
    """An WxH torus with optional failed nodes."""

    width: int = 6
    height: int = 8
    failed: Set[Coordinate] = field(default_factory=set)

    def __post_init__(self) -> None:
        if self.width < 2 or self.height < 2:
            raise ValueError("torus dimensions must be >= 2")

    @property
    def num_nodes(self) -> int:
        return self.width * self.height

    def coord(self, node: int) -> Coordinate:
        if not 0 <= node < self.num_nodes:
            raise ValueError(f"node {node} out of range")
        return node % self.width, node // self.width

    def node(self, coord: Coordinate) -> int:
        x, y = coord
        return (y % self.height) * self.width + (x % self.width)

    def is_failed(self, coord: Coordinate) -> bool:
        return coord in self.failed

    def fail_node(self, node: int) -> None:
        self.failed.add(self.coord(node))

    def neighbors(self, coord: Coordinate) -> List[Coordinate]:
        x, y = coord
        return [
            ((x + 1) % self.width, y),
            ((x - 1) % self.width, y),
            (x, (y + 1) % self.height),
            (x, (y - 1) % self.height),
        ]

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------
    def _wrap_step(self, src: int, dst: int, size: int) -> int:
        """Signed single step along one dimension, shorter way round."""
        forward = (dst - src) % size
        backward = (src - dst) % size
        if forward == 0:
            return 0
        return 1 if forward <= backward else -1

    def dimension_order_path(self, src: int,
                             dst: int) -> List[Coordinate]:
        """The fault-free XY route (inclusive of both endpoints)."""
        current = self.coord(src)
        goal = self.coord(dst)
        path = [current]
        x, y = current
        while x != goal[0]:
            x = (x + self._wrap_step(x, goal[0], self.width)) % self.width
            path.append((x, y))
        while y != goal[1]:
            y = (y + self._wrap_step(y, goal[1], self.height)) % self.height
            path.append((x, y))
        return path

    def shortest_healthy_path(self, src: int,
                              dst: int) -> Optional[List[Coordinate]]:
        """BFS route avoiding failed nodes; None if dst is unreachable.

        This models the v1 fabric's rerouting: failures cost extra hops,
        and some failure patterns partition the torus.
        """
        start = self.coord(src)
        goal = self.coord(dst)
        if self.is_failed(start) or self.is_failed(goal):
            return None
        if start == goal:
            return [start]
        previous: Dict[Coordinate, Coordinate] = {}
        visited = {start}
        queue = deque([start])
        while queue:
            current = queue.popleft()
            for nxt in self.neighbors(current):
                if nxt in visited or self.is_failed(nxt):
                    continue
                visited.add(nxt)
                previous[nxt] = current
                if nxt == goal:
                    path = [goal]
                    while path[-1] != start:
                        path.append(previous[path[-1]])
                    path.reverse()
                    return path
                queue.append(nxt)
        return None

    def route(self, src: int, dst: int) -> Optional[List[Coordinate]]:
        """Preferred route: dimension-order when healthy, BFS otherwise."""
        path = self.dimension_order_path(src, dst)
        if not any(self.is_failed(c) for c in path):
            return path
        return self.shortest_healthy_path(src, dst)

    def hops(self, src: int, dst: int) -> Optional[int]:
        path = self.route(src, dst)
        return None if path is None else len(path) - 1

    def max_hops(self) -> int:
        """Network diameter of the fault-free torus."""
        return self.width // 2 + self.height // 2
