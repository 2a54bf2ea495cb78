"""Shared-resource primitives: FIFO resources (CPUs) and stores (queues).

``Resource`` models a pool of identical servers (e.g. the CPU cores of a
node): requests queue FIFO and are granted as capacity frees up.  The
``serve`` helper wraps the common acquire → hold for a service time →
release pattern, which is how every CPU-bound operation in the simulated
datastores is charged.

``Store`` is an unbounded FIFO queue with blocking ``get``; it is used for
mailboxes and worker queues.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, Generator

from .events import Event, SimulationError, Simulator
from .process import Timeout

__all__ = ["Resource", "Store", "serve"]


class Resource:
    """A FIFO pool of ``capacity`` identical units."""

    def __init__(self, sim: Simulator, capacity: int = 1):
        if capacity < 1:
            raise SimulationError(f"capacity must be >= 1, got {capacity}")
        self.sim = sim
        self.capacity = capacity
        self._in_use = 0
        self._queue: Deque[Event] = deque()

    @property
    def in_use(self) -> int:
        return self._in_use

    @property
    def queue_length(self) -> int:
        return len(self._queue)

    def request(self) -> Event:
        """Return an event that succeeds when a unit is acquired."""
        req = Event(self.sim)
        if self._in_use < self.capacity:
            self._in_use += 1
            req.succeed()
        else:
            self._queue.append(req)
        return req

    def release(self) -> None:
        """Release one unit, granting it to the next waiter if any."""
        if self._in_use <= 0:
            raise SimulationError("release() without matching request()")
        if self._queue:
            nxt = self._queue.popleft()
            nxt.succeed()
        else:
            self._in_use -= 1

    def utilization_snapshot(self) -> float:
        """Instantaneous fraction of capacity in use."""
        return self._in_use / self.capacity


def serve(resource: Resource, service_time: float,
          value: Any = None) -> Generator[Event, Any, Any]:
    """Process fragment: acquire ``resource``, hold it, release, return.

    Use with ``yield from``::

        yield from serve(node.cpu, 0.0002)   # charge 200 us of CPU
    """
    if resource._in_use < resource.capacity:
        # Uncontended (the common case): take the unit directly.  A
        # granted request() would resume us synchronously anyway.
        resource._in_use += 1
    else:
        yield resource.request()
    try:
        yield Timeout(resource.sim, service_time)
    finally:
        resource.release()
    return value


class Store:
    """Unbounded FIFO queue with event-based ``get``."""

    def __init__(self, sim: Simulator):
        self.sim = sim
        self._items: Deque[Any] = deque()
        self._getters: Deque[Event] = deque()

    def __len__(self) -> int:
        return len(self._items)

    def put(self, item: Any) -> None:
        if self._getters:
            self._getters.popleft().succeed(item)
        else:
            self._items.append(item)

    def get(self) -> Event:
        """Event that succeeds with the next item (FIFO)."""
        ev = Event(self.sim)
        if self._items:
            ev.succeed(self._items.popleft())
        else:
            self._getters.append(ev)
        return ev

    def drain(self) -> list:
        """Remove and return all queued items without blocking."""
        items = list(self._items)
        self._items.clear()
        return items
