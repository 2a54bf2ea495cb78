"""Generator-based processes on top of the event kernel.

A *process* is a Python generator that yields :class:`~repro.sim.events.Event`
objects.  Each yield suspends the process until the event triggers; the
event's value becomes the result of the ``yield`` expression and a failed
event is re-raised inside the generator.  A process is itself an event that
succeeds with the generator's return value, so processes compose.

Example::

    def writer(sim, disk):
        yield sim_timeout(sim, 0.5)            # sleep 500 ms
        lsn = yield disk.force(4096)           # wait for a log force
        return lsn

    proc = Process(sim, writer(sim, disk))
    sim.run()
    assert proc.ok

Hot path
--------
``yield timeout(sim, dt)`` is by far the most common scheduling idiom
(every CPU charge, sleep, and retry backoff), so it is special-cased
end to end (see DESIGN.md, "Kernel hot paths"):

* :class:`Timeout` pushes its heap entry directly (no ``Event`` →
  ``Simulator.schedule`` indirection, no per-timeout closure) and stores
  its value up front.  It keeps *no* reference to that entry: only the
  heap holds it, so a fired Timeout is freed by reference count when
  the run loop drops the popped entry — a reference back would close
  the cycle Timeout → entry → ``_fire`` → Timeout and hand three
  objects per sleep to the cycle collector;
* when a :class:`Process` yields a pending Timeout that nothing else is
  watching, it registers itself as the Timeout's single *waiter* instead
  of appending to the callback list; the fire path then resumes the
  generator directly.  The waiter resume keeps the exact semantics of
  the callback path: the identity check against ``self._target`` ignores
  stale wake-ups after an interrupt, and callbacks added after the
  hijack (e.g. a second process yielding the same Timeout) still run, in
  registration order, after the waiter.

Neither shortcut changes simulated timestamps, priorities, or sequence
numbers, so traces are bit-identical with the straightforward path.

A process takes its first step through the heap, which keeps creation
order deterministic wherever it is spawned — the entry's callback is
``_step`` itself, pushed as Timeout pushes its own;
``Supervisor.spawn(..., inline=True)`` steps it at once instead — one
heap entry less per message, legal only as the last act of a kernel
callback.  No frame on these paths only forwards to the next.
"""

from __future__ import annotations

from heapq import heappush
from typing import (Any, Callable, Dict, Generator, Iterable, List, Optional,
                    Union)

from .events import NORMAL, URGENT, Event, SimulationError, Simulator

__all__ = [
    "Process",
    "Timeout",
    "Interrupt",
    "ProcessKilled",
    "AllOf",
    "AnyOf",
    "Supervisor",
    "SimHost",
    "spawn",
    "timeout",
    "all_of",
    "any_of",
    "drive",
]


class Interrupt(Exception):
    """Thrown into a process by :meth:`Process.interrupt`."""

    def __init__(self, cause: Any = None):
        super().__init__(cause)
        self.cause = cause


class ProcessKilled(SimulationError):
    """A process ended because it did not handle an interrupt.

    Distinguished from ordinary failures so supervisors (e.g. a node
    killing its handlers on crash) can tell deliberate kills from bugs.
    """


class Timeout(Event):
    """An event that succeeds after a fixed delay."""

    __slots__ = ("_waiter",)

    def __init__(self, sim: Simulator, delay: float, value: Any = None):
        # Inlined Event.__init__ + Simulator.schedule: this constructor
        # runs once per simulated sleep/CPU charge, and the wrapper
        # calls plus the per-timeout trigger closure are measurable at
        # that volume.  The entry layout and seq ordering are identical
        # to Simulator.schedule's.
        self.sim = sim
        self._ok: Optional[bool] = None
        self._value = value
        self._callbacks: Optional[list] = []
        self._waiter: Optional["Process"] = None
        if delay < 0:
            raise SimulationError(f"negative delay {delay!r}")
        seq = sim._seq
        sim._seq = seq + 1
        # Anonymous: only the heap may hold the entry (see "Hot path").
        heappush(sim._heap, [sim._now + delay, NORMAL, seq, self._fire])

    def _fire(self) -> None:
        """Trigger from the heap: succeed, waking the waiter first."""
        if self._ok is not None:
            return  # already triggered explicitly (e.g. succeed())
        self._ok = True
        waiter = self._waiter
        if waiter is not None:
            self._waiter = None
            # Stale wake-up check, same as Process._on_target: if the
            # process was interrupted away from us, leave it alone.
            if waiter._target is self:
                waiter._target = None
                waiter._step(self._value)
        callbacks = self._callbacks
        self._callbacks = None
        for cb in callbacks or ():
            cb(self)

    # Explicit (non-heap) triggering is rare for Timeouts; convert the
    # fast-path waiter back into an ordinary first callback so the
    # waiter-first wake order matches _fire's.
    def _flush_waiter(self) -> None:
        waiter = self._waiter
        if waiter is not None:
            self._waiter = None
            if self._callbacks is not None:
                self._callbacks.insert(0, waiter._on_target)

    def succeed(self, value: Any = None) -> "Event":
        self._flush_waiter()
        return Event.succeed(self, value)

    def fail(self, exc: BaseException) -> "Event":
        self._flush_waiter()
        return Event.fail(self, exc)


class Process(Event):
    """Drives a generator, treating each yielded value as an event."""

    __slots__ = ("_gen", "_send", "_throw", "_target", "name")

    def __init__(self, sim: Simulator, gen: Generator[Event, Any, Any],
                 name: str = "", start: bool = True):
        self.sim = sim          # Event.__init__ inlined, as in Timeout
        self._ok: Optional[bool] = None
        self._value: Any = None
        self._callbacks: Optional[list] = []
        try:    # bound-method cache for the step loop
            self._send, self._throw = gen.send, gen.throw
        except AttributeError:
            raise SimulationError(
                f"Process needs a generator, got {gen!r}") from None
        self._gen = gen
        self._target: Optional[Event] = None
        self.name = name or getattr(gen, "__name__", "process")
        # Start the process at the current time, but via the heap so that
        # creation order is preserved deterministically
        # (``start=False``: Supervisor.spawn steps it inline instead).
        # Simulator.schedule inlined, as in Timeout.
        if start:
            seq = sim._seq
            sim._seq = seq + 1
            heappush(sim._heap, [sim._now, URGENT, seq, self._step])

    # -- lifecycle ---------------------------------------------------------
    @property
    def is_alive(self) -> bool:
        return not self.triggered

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at the current time.

        Interrupting an already-finished process is a no-op.
        """
        if self.triggered:
            return
        # The abandoned target's eventual trigger is ignored: _on_target
        # (and the Timeout waiter fast path) check identity with _target.
        self._target = None
        self.sim.schedule(
            0.0, lambda: self._step(None, Interrupt(cause)),
            priority=URGENT)

    # -- internals -----------------------------------------------------------
    def _on_target(self, event: Event) -> None:
        if self._target is not event:
            return  # stale wake-up (we were interrupted away from it)
        self._target = None
        if event._ok:
            self._step(event._value)
        else:
            self._step(None, event._value)

    def _step(self, value: Any = None,
              exc: Optional[BaseException] = None) -> None:
        """Advance the generator by one yield (bare: its first step)."""
        if self._ok is not None:
            return
        try:
            if exc is None:
                target = self._send(value)
            else:
                target = self._throw(exc)
        except StopIteration as stop:
            self.succeed(stop.value)
            return
        except Interrupt as unhandled:
            self.fail(ProcessKilled(
                f"process {self.name!r} did not handle {unhandled!r}"))
            return
        except BaseException as err:  # noqa: BLE001 - propagate into event
            self.fail(err)
            return
        if type(target) is Timeout:
            # Fast path: a pending, unwatched Timeout resumes us straight
            # from its fire callback — no callback-list round trip.
            if (target._ok is None and target._waiter is None
                    and not target._callbacks):
                self._target = target
                target._waiter = self
                return
        elif not isinstance(target, Event):
            self._gen.close()
            self.fail(SimulationError(
                f"process {self.name!r} yielded non-event {target!r}"))
            return
        self._target = target
        callbacks = target._callbacks       # Event.add_callback, in place
        if callbacks is None:
            self._on_target(target)
        else:
            callbacks.append(self._on_target)


class Supervisor:
    """One owner's processes: tracked so a crash can kill them, and so
    one that dies of anything *but* a kill is noticed.

    Both stores' nodes hold one and bind its :meth:`spawn` as their own
    (the per-message path gains no frame for the indirection)."""

    __slots__ = ("sim", "_prefix", "_procs", "failures", "_done")

    def __init__(self, sim: Simulator, owner: str):
        self.sim = sim
        self._prefix = owner + ":"
        #: live processes in spawn order (dict-as-ordered-set: kill_all
        #: must interrupt them deterministically, and set iteration
        #: order would vary run to run)
        self._procs: Dict[Process, None] = {}
        #: failures of handler processes that were NOT deliberate kills —
        #: tests assert this stays empty (protocol bugs surface here)
        self.failures: List[BaseException] = []
        self._done = self._on_done          # bound once, not per spawn

    def spawn(self, gen: Generator[Event, Any, Any], name: str = "",
              inline: bool = False) -> Process:
        """Start a process tracked for crash-time termination.

        ``inline`` takes the first step now instead of through the heap.
        Only legal as the *last act of a kernel callback* (a delivery
        dispatching its handler): the heap start would be the very next
        entry popped — URGENT, now, and every earlier URGENT entry at
        this time has already run — so this changes no order, only saves
        the entry.  Anywhere else, code after the call would run before
        the first step on the heap path and after it here.  Its callers
        are the deliveries that still start a process: a Spinnaker
        node's catch-up chunk, catch-up request and migration start
        (multi-round activities — a get, a put and a propose are handled
        by functions, see ``resources.charge``) and every handler of the
        baseline store."""
        proc = Process(self.sim, gen, self._prefix + name, start=not inline)
        self._procs[proc] = None
        proc._callbacks.append(self._done)  # not stepped yet: still a list
        if inline:
            proc._step()
        return proc

    def _on_done(self, proc: Event) -> None:
        self._procs.pop(proc, None)
        if not proc._ok and not isinstance(proc._value, ProcessKilled):
            self.failures.append(proc._value)

    def kill_all(self) -> None:
        """The owner crashed: interrupt every live process, oldest
        first."""
        for proc in list(self._procs):
            proc.interrupt("crash")
        self._procs.clear()


class _Condition(Event):
    """Base for AllOf/AnyOf composite events."""

    __slots__ = ("_events", "_pending")

    def __init__(self, sim: Simulator, events: Iterable[Event]):
        super().__init__(sim)
        self._events: List[Event] = list(events)
        self._pending = len(self._events)
        if not self._events:
            self.succeed([])
            return
        for ev in self._events:
            ev.add_callback(self._on_child)

    def _on_child(self, event: Event) -> None:
        raise NotImplementedError


class AllOf(_Condition):
    """Succeeds with the list of values once every child succeeds.

    Fails as soon as any child fails (remaining children keep running).
    """

    __slots__ = ()

    def _on_child(self, event: Event) -> None:
        if self.triggered:
            return
        if not event._ok:
            self.fail(event._value)
            return
        self._pending -= 1
        if self._pending == 0:
            self.succeed([ev._value for ev in self._events])


class AnyOf(_Condition):
    """Succeeds with (index, value) of the first child that succeeds."""

    __slots__ = ()

    def _on_child(self, event: Event) -> None:
        if self.triggered:
            return
        if event._ok:
            self.succeed((self._events.index(event), event._value))
        else:
            self.fail(event._value)


class Quorum(Event):
    """Succeeds once ``need`` of the child events have succeeded.

    Used to model quorum waits (e.g. "wait for acks from any 2 of 3
    replicas").  Child failures count against the quorum; the Quorum event
    fails only if success becomes impossible.
    """

    __slots__ = ("_need", "_got", "_left", "_values")

    def __init__(self, sim: Simulator, events: Iterable[Event], need: int):
        super().__init__(sim)
        events = list(events)
        if need > len(events):
            raise SimulationError(
                f"quorum of {need} impossible with {len(events)} events")
        self._need = need
        self._got = 0
        self._left = len(events)
        self._values: List[Any] = []
        if need <= 0:
            self.succeed([])
            return
        for ev in events:
            ev.add_callback(self._on_child)

    def _on_child(self, event: Event) -> None:
        if self.triggered:
            return
        self._left -= 1
        if event._ok:
            self._got += 1
            self._values.append(event._value)
            if self._got >= self._need:
                self.succeed(list(self._values))
                return
        if self._got + self._left < self._need:
            self.fail(SimulationError(
                f"quorum unreachable: {self._got} of {self._need}"))


# ---------------------------------------------------------------------------
# Convenience constructors: the classes under their verb names — a
# function here would only forward, one more frame per sleep and spawn
# ---------------------------------------------------------------------------

spawn = Process        # spawn(sim, gen, name=""): start a new process
timeout = Timeout      # timeout(sim, delay, value=None): fires after delay
all_of = AllOf         # all_of(sim, events): once every child succeeds
any_of = AnyOf         # any_of(sim, events): the first child to succeed
quorum = Quorum        # quorum(sim, events, need): once need children have


class SimHost:
    """Mixin for whatever owns a ``sim`` and is run from outside it
    (the two stores' clusters): advance simulated time by a duration or
    until a condition holds."""

    sim: Simulator

    def run(self, duration: float) -> None:
        self.sim.run(until=self.sim.now + duration)

    def run_until(self, predicate: Callable[[], bool], limit: float,
                  step: float = 0.05, what: str = "condition") -> None:
        """Advance simulated time until ``predicate()`` or ``limit``."""
        deadline = self.sim.now + limit
        while not predicate():
            if self.sim.now >= deadline:
                raise SimulationError(
                    f"timed out waiting for {what} at t={self.sim.now}")
            self.sim.run(until=min(self.sim.now + step, deadline))


def drive(host: SimHost, work: Union[Event, Generator[Event, Any, Any]],
          limit: float, what: str = "process", step: float = 0.05,
          name: str = "") -> Any:
    """Run ``work`` to completion from outside the simulation.

    ``host`` is a cluster; ``work`` is a generator, spawned here as a
    process, or an event that is already under way (``all_of`` over
    several processes, say).  Time advances in ``step`` increments until
    the work triggers or ``limit`` simulated seconds pass.  Returns the
    work's value; a failure inside it re-raises here instead of passing
    for a timeout.
    """
    event = (work if isinstance(work, Event)
             else Process(host.sim, work, name=name))
    host.run_until(lambda: event.triggered, limit=limit, step=step,
                   what=what)
    return event.result()
