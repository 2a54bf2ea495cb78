"""Discrete-event simulation kernel.

This module provides the scheduler (:class:`Simulator`) and the basic
one-shot :class:`Event` primitive that everything else in :mod:`repro.sim`
is built on.  The design follows the classic event-heap pattern (similar in
spirit to SimPy): the simulator owns a priority queue of ``[time, priority,
sequence, callback]`` entries and executes them in timestamp order.  Time is
a float measured in **seconds** of simulated time.

Hot path
--------
Every simulated message, disk force, and process resume passes through
this heap, so the entry representation is chosen for speed (see
DESIGN.md, "Kernel hot paths"):

* entries are plain 4-element **lists**, not objects — no per-event
  allocation of a wrapper class, and ``heapq`` compares them with C-level
  list comparison instead of a Python ``__lt__`` call.  The comparison
  never reaches the callback element because the sequence number (index
  2) is unique per entry;
* cancellation is **lazy**: :meth:`Simulator.cancel` nulls the callback
  slot and the entry is skipped when it surfaces at the top of the heap,
  instead of churning the heap structure;
* :meth:`Simulator.run` drives the heap with method references hoisted
  into locals.

Determinism
-----------
Two runs with the same seed must produce identical traces, so ties in the
heap are broken by a monotonically increasing sequence number: events
scheduled earlier run earlier.  No wall-clock time or unordered-set
iteration is used anywhere in the kernel.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Any, Callable, List, Optional

__all__ = [
    "Simulator",
    "Event",
    "SimulationError",
    "StopSimulation",
    "URGENT",
    "NORMAL",
]

#: Priority for callbacks that must run before ordinary ones at the same
#: timestamp (used internally when an event fires to wake its waiters).
URGENT = 0

#: Default priority for user-scheduled callbacks.
NORMAL = 1

#: Heap-entry layout: ``[time, priority, seq, callback]``.  A cancelled
#: entry has ``callback`` set to None and is skipped lazily on pop.
_TIME, _PRIORITY, _SEQ, _CALLBACK = 0, 1, 2, 3


class SimulationError(Exception):
    """Base class for errors raised by the simulation kernel."""


class StopSimulation(Exception):
    """Raised internally to stop :meth:`Simulator.run` early."""

    def __init__(self, value: Any = None):
        super().__init__(value)
        self.value = value


class Simulator:
    """The discrete-event scheduler.

    Usage::

        sim = Simulator()
        sim.schedule(1.5, lambda: print("fires at t=1.5"))
        sim.run()
    """

    def __init__(self) -> None:
        self._now: float = 0.0
        self._heap: List[list] = []
        self._seq: int = 0
        self._running = False

    # ------------------------------------------------------------------
    # Time and scheduling
    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    def schedule(self, delay: float, callback: Callable[[], None],
                 priority: int = NORMAL) -> list:
        """Schedule ``callback`` to run ``delay`` seconds from now.

        Returns a handle accepted by :meth:`cancel`, which removes the
        callback if it has not yet fired.
        """
        if delay < 0:
            raise SimulationError(f"negative delay {delay!r}")
        seq = self._seq
        self._seq = seq + 1
        entry = [self._now + delay, priority, seq, callback]
        heappush(self._heap, entry)
        return entry

    def call_at(self, time: float, callback: Callable[[], None],
                priority: int = NORMAL) -> list:
        """Schedule ``callback`` at absolute simulated ``time``."""
        if time < self._now:
            raise SimulationError(
                f"cannot schedule in the past ({time} < {self._now})")
        seq = self._seq
        self._seq = seq + 1
        entry = [time, priority, seq, callback]
        heappush(self._heap, entry)
        return entry

    @staticmethod
    def cancel(entry: list) -> None:
        """Cancel a scheduled entry (no-op if it already ran).

        Lazy deletion: the heap entry stays in place with its callback
        nulled and is discarded when it reaches the top.
        """
        entry[_CALLBACK] = None

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def step(self) -> bool:
        """Run the next pending callback.  Returns False when idle."""
        heap = self._heap
        while heap:
            entry = heappop(heap)
            callback = entry[_CALLBACK]
            if callback is None:
                continue
            self._now = entry[_TIME]
            callback()
            return True
        return False

    def run(self, until: Optional[float] = None) -> None:
        """Run callbacks until the heap drains or ``until`` is reached.

        When ``until`` is given, simulated time is advanced to exactly
        ``until`` even if the last event fired earlier.
        """
        heap = self._heap
        pop = heappop
        self._running = True
        try:
            if until is None:
                while heap:
                    entry = pop(heap)
                    callback = entry[_CALLBACK]
                    if callback is not None:
                        self._now = entry[_TIME]
                        callback()
            else:
                while heap:
                    if heap[0][_TIME] > until:
                        break
                    entry = pop(heap)
                    callback = entry[_CALLBACK]
                    if callback is not None:
                        self._now = entry[_TIME]
                        callback()
        except StopSimulation:
            pass
        finally:
            self._running = False
        if until is not None and self._now < until:
            self._now = until

    def stop(self) -> None:
        """Stop a :meth:`run` in progress at the current time."""
        raise StopSimulation()


class Event:
    """A one-shot event that callbacks (and processes) can wait on.

    An event starts *pending*; exactly one of :meth:`succeed` or
    :meth:`fail` moves it to *triggered*.  Callbacks added before the
    trigger run (in order) at the moment of triggering; callbacks added
    after run immediately.
    """

    __slots__ = ("sim", "_ok", "_value", "_callbacks")

    def __init__(self, sim: Simulator):
        self.sim = sim
        self._ok: Optional[bool] = None  # None=pending, True/False=done
        self._value: Any = None
        self._callbacks: Optional[List[Callable[["Event"], None]]] = []

    # -- state ----------------------------------------------------------
    @property
    def triggered(self) -> bool:
        return self._ok is not None

    @property
    def ok(self) -> bool:
        """True if the event succeeded.  Only valid once triggered."""
        if self._ok is None:
            raise SimulationError("event still pending")
        return self._ok

    def result(self) -> Any:
        """The success value; re-raises the failure exception."""
        if self._ok is None:
            raise SimulationError("event still pending")
        if self._ok:
            return self._value
        raise self._value

    @property
    def exception(self) -> Optional[BaseException]:
        """The failure exception, or None."""
        if self._ok is False:
            return self._value
        return None

    # -- triggering -------------------------------------------------------
    def succeed(self, value: Any = None) -> "Event":
        if self._ok is not None:
            raise SimulationError("event already triggered")
        self._ok = True
        self._value = value
        callbacks = self._callbacks
        self._callbacks = None
        for cb in callbacks or ():
            cb(self)
        return self

    def fail(self, exc: BaseException) -> "Event":
        if not isinstance(exc, BaseException):
            raise SimulationError(f"fail() needs an exception, got {exc!r}")
        if self._ok is not None:
            raise SimulationError("event already triggered")
        self._ok = False
        self._value = exc
        callbacks = self._callbacks
        self._callbacks = None
        for cb in callbacks or ():
            cb(self)
        return self

    # -- waiting ----------------------------------------------------------
    def add_callback(self, callback: Callable[["Event"], None]) -> None:
        """Invoke ``callback(event)`` when (or if already) triggered."""
        if self._callbacks is None:
            callback(self)
        else:
            self._callbacks.append(callback)
