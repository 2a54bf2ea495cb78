"""Edge cases of the simulation kernel: priorities, deep chains,
process interplay with resources and the network."""

import pytest

from repro.sim.events import Event, Simulator, NORMAL, URGENT
from repro.sim.process import ProcessKilled, all_of, spawn, timeout
from repro.sim.resources import Resource, serve


def test_urgent_runs_before_normal_at_same_time():
    sim = Simulator()
    order = []
    sim.schedule(1.0, lambda: order.append("normal"), priority=NORMAL)
    sim.schedule(1.0, lambda: order.append("urgent"), priority=URGENT)
    sim.run()
    assert order == ["urgent", "normal"]


def test_event_triggered_during_callback_cascade():
    sim = Simulator()
    chain = []
    events = [Event(sim) for _ in range(5)]
    for i, ev in enumerate(events[:-1]):
        nxt = events[i + 1]
        ev.add_callback(lambda _e, n=nxt, i=i: (chain.append(i),
                                                n.succeed()))
    events[0].succeed()
    assert chain == [0, 1, 2, 3]


def test_process_chain_of_immediate_events():
    """Yielding many already-triggered events must not blow the stack."""
    sim = Simulator()

    def worker():
        total = 0
        for _ in range(150):
            ev = Event(sim)
            ev.succeed(1)
            total += yield ev
        return total

    proc = spawn(sim, worker())
    sim.run()
    assert proc.result() == 150


def test_process_returning_immediately():
    sim = Simulator()

    def instant():
        return 42
        yield  # pragma: no cover - makes it a generator

    proc = spawn(sim, instant())
    sim.run()
    assert proc.result() == 42


def test_all_of_with_one_failure_fails():
    sim = Simulator()
    good = timeout(sim, 1.0, "ok")
    bad = Event(sim)
    cond = all_of(sim, [good, bad])
    sim.schedule(0.5, lambda: bad.fail(RuntimeError("boom")))
    sim.run()
    assert cond.triggered and not cond.ok


def test_killed_process_releases_resource_exactly_once():
    sim = Simulator()
    cpu = Resource(sim, capacity=1)
    finished = []

    def holder():
        yield from serve(cpu, 10.0)

    def waiter():
        yield from serve(cpu, 0.5)
        finished.append(sim.now)

    proc = spawn(sim, holder())
    spawn(sim, waiter())
    sim.schedule(1.0, lambda: proc.interrupt("kill"))
    sim.run()
    assert isinstance(proc.exception, ProcessKilled)
    assert finished == [1.5]
    assert cpu.in_use == 0


def test_interrupt_race_with_completion_same_instant():
    sim = Simulator()

    def quick():
        yield timeout(sim, 1.0)
        return "done"

    proc = spawn(sim, quick())
    # Schedule the interrupt at exactly the completion time; either the
    # process finished first (ok) or it was killed — but never both, and
    # never a crash.
    sim.schedule(1.0, lambda: proc.interrupt("race"))
    sim.run()
    assert proc.triggered
    assert proc.ok or isinstance(proc.exception, ProcessKilled)


def test_timeout_value_passthrough():
    sim = Simulator()

    def worker():
        value = yield timeout(sim, 0.5, value={"payload": 1})
        return value

    proc = spawn(sim, worker())
    sim.run()
    assert proc.result() == {"payload": 1}


def test_run_until_does_not_overshoot_past_cancelled_head():
    """A cancelled entry at the top of the heap must not let run(until)
    execute an event scheduled *beyond* the bound (regression: the old
    loop peeked only the head's time, then popped past the cancelled
    entry and ran whatever came next, ending with now > until)."""
    sim = Simulator()
    fired = []
    handle = sim.schedule(0.5, lambda: fired.append("cancelled"))
    sim.schedule(2.0, lambda: fired.append("late"))
    sim.cancel(handle)
    sim.run(until=1.0)
    assert fired == []
    assert sim.now == 1.0
    sim.run()
    assert fired == ["late"]
    assert sim.now == 2.0


def test_cancelled_entries_are_skipped_lazily():
    """Cancellation nulls the callback in place; a later run() skips the
    dead entries without disturbing the order of live ones."""
    sim = Simulator()
    order = []
    handles = [sim.schedule(float(i), lambda i=i: order.append(i))
               for i in range(6)]
    for i in (0, 2, 4):
        sim.cancel(handles[i])
    sim.cancel(handles[2])  # double-cancel is a no-op
    sim.run()
    assert order == [1, 3, 5]
