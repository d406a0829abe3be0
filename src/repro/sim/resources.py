"""Shared resources for simulation processes.

:class:`Resource` is a counted resource with a FIFO request queue (models
a CPU core pool, an FPGA role slot, a DMA channel, ...).
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, List, TYPE_CHECKING

from .events import Event

if TYPE_CHECKING:  # pragma: no cover
    from .kernel import Environment


class ResourceRequest(Event):
    """Pending claim on a :class:`Resource` slot."""

    __slots__ = ("resource", "released")

    def __init__(self, env: "Environment", resource: "Resource"):
        super().__init__(env)
        self.resource = resource
        self.released = False

    def release(self) -> None:
        """Give the slot back (idempotent)."""
        self.resource.release(self)

    # Context-manager sugar so processes can write
    # ``with resource.request() as req: yield req``.
    def __enter__(self) -> "ResourceRequest":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.release()


class Resource:
    """Counted resource with a FIFO wait queue.

    ``capacity`` slots exist; ``request()`` returns an event that succeeds
    when a slot is granted.  Slots are returned via ``release`` (or the
    request's context manager).
    """

    def __init__(self, env: "Environment", capacity: int = 1):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.env = env
        self.capacity = capacity
        self.users: List[ResourceRequest] = []
        self.queue: Deque[ResourceRequest] = deque()

    @property
    def count(self) -> int:
        """Number of slots currently held."""
        return len(self.users)

    def request(self) -> ResourceRequest:
        event = ResourceRequest(self.env, self)
        self.queue.append(event)
        self._grant()
        return event

    def release(self, request: ResourceRequest) -> None:
        if request.released:
            return
        request.released = True
        if request in self.users:
            self.users.remove(request)
        elif request in self.queue:
            # Cancelled before being granted.
            self.queue.remove(request)
            if not request.triggered:
                request._defused = True
            return
        self._grant()

    def _grant(self) -> None:
        while self.queue and len(self.users) < self.capacity:
            request = self.queue.popleft()
            self.users.append(request)
            request.succeed()
