"""The shared-resource primitive: a FIFO pool of servers (CPUs).

``Resource`` models a pool of identical servers (e.g. the CPU cores of a
node): requests queue FIFO and are granted as capacity frees up.  The
common acquire → hold for a service time → release pattern, which is how
every CPU-bound operation in the simulated datastores is charged, comes
in two forms that share one queue and one order: ``serve`` for a process
(``yield from``), ``charge`` for a plain function that names what runs
next (DESIGN.md, "Kernel hot paths", *Handlers are functions*).
"""

from __future__ import annotations

from collections import deque
from heapq import heappush
from typing import Any, Callable, Deque, Generator, Union

from .events import NORMAL, Event, SimulationError, Simulator
from .process import Timeout

__all__ = ["Resource", "Charge", "charge", "serve"]


class Resource:
    """A FIFO pool of ``capacity`` identical units."""

    def __init__(self, sim: Simulator, capacity: int = 1):
        if capacity < 1:
            raise SimulationError(f"capacity must be >= 1, got {capacity}")
        self.sim = sim
        self.capacity = capacity
        self._in_use = 0
        #: FIFO waiters — a :meth:`request` event or a :class:`Charge`:
        #: whatever ``succeed()`` means "the unit is yours"
        self._queue: Deque[Union[Event, "Charge"]] = deque()

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

    def cancel(self, req: Event) -> None:
        """Withdraw a :meth:`request` whose waiter is gone: leave the
        queue, or give back the unit if it was granted meanwhile."""
        try:
            self._queue.remove(req)
        except ValueError:
            if req._ok:
                self.release()


def serve(resource: Resource, service_time: float
          ) -> Generator[Event, Any, None]:
    """Process fragment: acquire ``resource``, hold it, release, return.

    Use with ``yield from``::

        yield from serve(node.cpu, 0.0002)   # charge 200 us of CPU
    """
    if resource._in_use < resource.capacity:
        # Uncontended (the common case): take the unit directly.  A
        # granted request() would resume us synchronously anyway.
        resource._in_use += 1
    else:
        req = resource.request()
        try:
            yield req
        except BaseException:
            # Killed while queued: left in the queue, the request would
            # be granted a unit that nobody ever gives back.
            resource.cancel(req)
            raise
    try:
        yield Timeout(resource.sim, service_time)
    finally:
        resource.release()


class Charge:
    """:func:`serve` for a plain function: take a unit of ``resource``
    (or queue FIFO for one), hold it ``service_time`` seconds, release
    it, then call ``then(*args)``::

        charge(node.cpu, 0.0002, reply, req)    # reply(req) 200 us on

    One object and one heap entry, against ``serve``'s process, Timeout
    and two generators — in the same order throughout: the hold's
    sequence number is drawn where ``serve`` constructs its Timeout (at
    once if a unit is free, else inside the ``release()`` that grants
    one), and the unit is released — the next waiter granted, its hold
    pushed — before the continuation runs, as ``serve``'s ``finally``
    runs before its caller resumes.  The instance is the queued waiter
    and then the kernel callback; whoever needs the continuation dropped
    (a crashed owner) passes a ``then`` that checks.
    """

    __slots__ = ("resource", "service_time", "then", "args")

    def __init__(self, resource: Resource, service_time: float,
                 then: Callable[..., None], *args: Any):
        if service_time < 0:
            raise SimulationError(f"negative service time {service_time!r}")
        self.resource = resource
        self.service_time = service_time
        self.then = then
        self.args = args
        if resource._in_use < resource.capacity:
            resource._in_use += 1
            # succeed() in place: the uncontended case is the common one
            sim = resource.sim
            seq = sim._seq
            sim._seq = seq + 1
            heappush(sim._heap, [sim._now + service_time, NORMAL, seq, self])
        else:
            resource._queue.append(self)

    def succeed(self) -> None:
        """Granted by ``release()``, as a queued request event is: start
        the hold.  (Simulator.schedule inlined, as in Timeout.)"""
        sim = self.resource.sim
        seq = sim._seq
        sim._seq = seq + 1
        heappush(sim._heap,
                 [sim._now + self.service_time, NORMAL, seq, self])

    def __call__(self) -> None:
        """Kernel callback: the hold is over.  (``release()`` in place:
        a hold always has its unit to give back.)"""
        resource = self.resource
        if resource._queue:
            resource._queue.popleft().succeed()
        else:
            resource._in_use -= 1
        self.then(*self.args)


charge = Charge     # charge(resource, service_time, then, *args)

